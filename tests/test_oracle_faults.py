"""The graph oracle's FAIL and INFO paths under injected faults, and
``canonical_subgraph``'s mismatch errors.

Every oracle line in the goldens is PASS, so each test here corrupts one
result on the computed side of ``oracle_audit`` and pins every line it
prints at max_n 9: a solver's factor at one or two orders, the witness's
size or independence at one order, a verification verdict, an expected
vertex count too high at one order or too low at the last, an edge
dropped from every ``enumerate_cubes`` listing at one order, a cube
dropped from every level of ``enumerate_cubes`` at one order, a top-level
cube dropped from ``interval_cubes`` (which the entry comparing the two
enumerators notices, and at order 9 the solvers' entries), an edge dropped
from ``interval_cubes`` (which the Hamming entry notices, since
``_subcubes`` checks the level 1 it reads), a label misread by
``graphs.coordinate`` (which the Hamming entry notices too, holding the
label rule against ``graphs.member_coordinates``), a failed isomorphism, a
subcopy extraction, the JSON parser and the exporter.
Faults enter through module attributes the audit looks up at call time.
The audit lists each member's cubes once per enumerator, which the last
test counts.
"""

from __future__ import annotations

import dataclasses

import pytest

from cubefactor import audit, factors, graphs
from cubefactor.factors import CubeFactor, FactorViolation, InducedCube
from cubefactor.graphs import _bits, build_graph, canonical_subgraph


def _split_last_edge(factor):
    # one more part: the last 1-cube becomes its two single vertices
    parts = list(factor.parts)
    i = max(i for i, p in enumerate(parts) if p.dimension == 1)
    parts[i:i + 1] = [InducedCube(0, (v,)) for v in parts[i].vertices]
    return CubeFactor(tuple(parts))


def _halve_first_cube(factor):
    # same part count, another profile: the first part of dimension k >= 1
    # becomes its two halves as (k-1)-parts, and the first single vertex is
    # dropped (the factor no longer covers it)
    parts = list(factor.parts)
    i = next(i for i, p in enumerate(parts) if p.dimension >= 1)
    k, vertices = parts[i].dimension, parts[i].vertices
    half = len(vertices) // 2
    parts[i:i + 1] = [InducedCube(k - 1, vertices[:half]), InducedCube(k - 1, vertices[half:])]
    parts.pop(next(i for i, p in enumerate(parts) if p.dimension == 0))
    return CubeFactor(tuple(parts))


def _faulted_solver(mp, name, orders, fault):
    # the audit passes the graph last to every solver
    clean = getattr(factors, name)

    def solver(*args):
        factor = clean(*args)
        return fault(factor) if args[-1].n in orders else factor

    mp.setattr(factors, name, solver)


def extra_exact_part(mp):
    _faulted_solver(mp, "exact_min_factor", {7}, _split_last_edge)


def reshaped_exact_profile(mp):
    _faulted_solver(mp, "exact_min_factor", {5, 8}, _halve_first_cube)


def extra_greedy_part(mp):
    _faulted_solver(mp, "greedy_layered_factor", {8}, _split_last_edge)


def extra_structural_part(mp):
    _faulted_solver(mp, "structural_factor", {4}, _split_last_edge)


def short_witness(mp):
    # one vertex fewer at n=6: the size no longer matches padovan(n+1)
    clean = factors.cube_independent_set
    mp.setattr(factors, "cube_independent_set", lambda g: clean(g)[: -1 if g.n == 6 else None])


def clashing_witness(mp):
    # the right size at n=4, but the last vertex is swapped for a neighbour
    # of the first, so check_witness finds a shared edge
    clean = factors.cube_independent_set

    def witness(g):
        kept = clean(g)
        if g.n != 4:
            return kept
        neighbour = next(v for v in _bits(g.adj[kept[0]]) if v not in kept)
        return kept[:-1] + (neighbour,)

    mp.setattr(factors, "cube_independent_set", witness)


def rejecting_verify(mp):
    clean = factors.verify_factor

    def verify(g, factor):
        if g.n == 5:
            return FactorViolation("coverage", "injected", None)
        return clean(g, factor)

    mp.setattr(factors, "verify_factor", verify)


def wrong_vertex_count(mp):
    clean = graphs.expected_vertex_count
    mp.setattr(graphs, "expected_vertex_count", lambda fam, n: clean(fam, n) + (n == 3))


def undercounted_vertices(mp):
    # the formula under-counts n=9 by 30: its entry fails there, and every
    # other entry reads the built graphs, so their ranges still reach n=9
    clean = graphs.expected_vertex_count
    mp.setattr(graphs, "expected_vertex_count", lambda fam, n: clean(fam, n) - 30 * (n == 9))


def missing_edge_cube(mp):
    # every extension listing at n=6 loses its first edge; the solvers read
    # coordinate subcubes and keep it
    clean = factors.enumerate_cubes

    def enumerate_cubes(g, stats=None):
        levels = clean(g, stats)
        if g.n == 6:
            levels[1] = levels[1][1:]
        return levels

    mp.setattr(factors, "enumerate_cubes", enumerate_cubes)


def dropped_cube_per_level(mp):
    # the extension route loses the last cube of every level above 0 at n=7;
    # the solvers read coordinate subcubes and keep theirs
    clean = factors.enumerate_cubes

    def enumerate_cubes(g, stats=None):
        levels = clean(g, stats)
        return levels[:1] + [level[:-1] for level in levels[1:]] if g.n == 7 else levels

    mp.setattr(factors, "enumerate_cubes", enumerate_cubes)


def dropped_subcube(mp):
    # the coordinate route loses the last cube of its top filled level on
    # the members above 40 vertices, orders 8 and 9 in both families. Every
    # listing holds every level, so level 1 stays whole and the Hamming
    # entry passes; the enumerators differ from order 8, and the solvers
    # lose one 4-cube at order 8, which changes no optimum there, and at
    # order 9 gamma's only 5-cube and one of omega's nine 4-cubes, which does
    clean = factors.interval_cubes

    def interval_cubes(coords):
        levels = clean(coords)
        if len(coords) > 40:
            top = max(k for k, level in enumerate(levels) if level)
            levels[top] = levels[top][:-1]
        return levels

    mp.setattr(factors, "interval_cubes", interval_cubes)


def dropped_edge_subcube(mp):
    # the coordinate route loses its last edge on the same members, so
    # ``_subcubes`` rejects their coordinates: the Hamming and enumerator
    # entries fail from order 8, and the solvers read the extension route
    # there and keep their optima
    clean = factors.interval_cubes

    def interval_cubes(coords):
        levels = clean(coords)
        if len(coords) > 40:
            levels[1] = levels[1][:-1]
        return levels

    mp.setattr(factors, "interval_cubes", interval_cubes)


def misread_label(mp):
    # the label rule reads the label of coordinate 0 as 1 from order 8. The
    # Hamming entry holds it against ``member_coordinates`` and fails from
    # there; the solvers read no label and keep their optima
    clean = graphs.coordinate
    mp.setattr(graphs, "coordinate", lambda fam, n, label: clean(fam, n, label) or int(n >= 8))


def unreadable_label(mp):
    # the label rule cannot read any label from order 8: the Hamming entry
    # fails from there instead of the audit stopping, and the solvers read
    # no label and keep their optima
    clean = graphs.coordinate

    def coordinate(fam, n, label):
        if n >= 8:
            raise ValueError(f"{label!r} injected")
        return clean(fam, n, label)

    mp.setattr(graphs, "coordinate", coordinate)


def no_isomorphism(mp):
    mp.setattr(graphs, "find_isomorphism", lambda g, h: None)


def reversed_json(mp):
    clean = factors.factor_from_json
    mp.setattr(factors, "factor_from_json", lambda g, text: CubeFactor(clean(g, text).parts[::-1]))


def drifting_export(mp):
    clean = graphs.export_graph
    calls = []

    def export(g, fmt):
        calls.append(fmt)
        return clean(g, fmt) + "#" * len(calls)

    mp.setattr(graphs, "export_graph", export)


def rejected_subcopy(mp):
    clean = graphs.canonical_subgraph

    def extract(g, name):
        if (g.n, name) == (6, "first"):
            raise RuntimeError(f"subcopy {name!r} injected")
        return clean(g, name)

    mp.setattr(graphs, "canonical_subgraph", extract)


FAULTS = {
    f.__name__: f
    for f in (
        extra_exact_part, reshaped_exact_profile, extra_greedy_part, extra_structural_part,
        short_witness, clashing_witness, rejecting_verify, wrong_vertex_count,
        undercounted_vertices, missing_edge_cube, dropped_cube_per_level, dropped_subcube,
        dropped_edge_subcube, misread_label, unreadable_label, no_isomorphism, rejected_subcopy,
        reversed_json, drifting_export,
    )
}

EXPECTED = {
    ('extra_exact_part', 'gamma'): [
        'PASS gamma vertex count equals fib(n+2): [n=0..9]',
        'PASS gamma graphs are connected: [n=0..9]',
        'FAIL gamma exact-min part count equals padovan(n+1): first failure at n=7',
        'PASS gamma cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS gamma greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma structural profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma verify-factor passes on all three solvers: [n=0..9]',
        'INFO gamma exact-min profile vs recurrence coefficients: minimum-count factor with a different profile at n=[7]',
        'PASS gamma dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS gamma adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS gamma cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS gamma recursion split partitions the vertex set: [n=3..9]',
        'PASS gamma canonical subcopies equal freshly built members: [n=0..9]',
        'PASS gamma factor JSON round-trips through verification: [n=5]',
        'PASS gamma exports are deterministic: [n=5]',
    ],
    ('extra_exact_part', 'omega'): [
        'PASS omega vertex count equals lucas(n): [n=0..9]',
        'PASS omega graphs are connected: [n=0..9]',
        'FAIL omega exact-min part count equals padovan(n+1): first failure at n=7',
        'PASS omega cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS omega greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS omega structural profile equals recurrence coefficients: [n=0..9]',
        'PASS omega verify-factor passes on all three solvers: [n=0..9]',
        'INFO omega exact-min profile vs recurrence coefficients: minimum-count factor with a different profile at n=[7]',
        'PASS omega dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS omega adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS omega cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS omega recursion split partitions the vertex set: [n=5..9]',
        'PASS omega canonical subcopies equal freshly built members: [n=0..9]',
        'PASS omega cross edges form a perfect matching on the smaller copy: [n=4..9]',
        'PASS omega order-4 member is the grid-plus-pendant graph: explicit isomorphism found',
        'PASS omega factor JSON round-trips through verification: [n=5]',
        'PASS omega exports are deterministic: [n=5]',
    ],
    ('reshaped_exact_profile', 'gamma'): [
        'PASS gamma vertex count equals fib(n+2): [n=0..9]',
        'PASS gamma graphs are connected: [n=0..9]',
        'PASS gamma exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS gamma cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS gamma greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma structural profile equals recurrence coefficients: [n=0..9]',
        'FAIL gamma verify-factor passes on all three solvers: first failure at n=5',
        'INFO gamma exact-min profile vs recurrence coefficients: minimum-count factor with a different profile at n=[5, 8]',
        'PASS gamma dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS gamma adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS gamma cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS gamma recursion split partitions the vertex set: [n=3..9]',
        'PASS gamma canonical subcopies equal freshly built members: [n=0..9]',
        'PASS gamma factor JSON round-trips through verification: [n=5]',
        'PASS gamma exports are deterministic: [n=5]',
    ],
    ('reshaped_exact_profile', 'omega'): [
        'PASS omega vertex count equals lucas(n): [n=0..9]',
        'PASS omega graphs are connected: [n=0..9]',
        'PASS omega exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS omega cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS omega greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS omega structural profile equals recurrence coefficients: [n=0..9]',
        'FAIL omega verify-factor passes on all three solvers: first failure at n=5',
        'INFO omega exact-min profile vs recurrence coefficients: minimum-count factor with a different profile at n=[5, 8]',
        'PASS omega dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS omega adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS omega cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS omega recursion split partitions the vertex set: [n=5..9]',
        'PASS omega canonical subcopies equal freshly built members: [n=0..9]',
        'PASS omega cross edges form a perfect matching on the smaller copy: [n=4..9]',
        'PASS omega order-4 member is the grid-plus-pendant graph: explicit isomorphism found',
        'PASS omega factor JSON round-trips through verification: [n=5]',
        'PASS omega exports are deterministic: [n=5]',
    ],
    ('extra_greedy_part', 'gamma'): [
        'PASS gamma vertex count equals fib(n+2): [n=0..9]',
        'PASS gamma graphs are connected: [n=0..9]',
        'PASS gamma exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS gamma cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'FAIL gamma greedy-layered profile equals recurrence coefficients: first failure at n=8',
        'PASS gamma structural profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma verify-factor passes on all three solvers: [n=0..9]',
        'PASS gamma exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS gamma adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS gamma cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS gamma recursion split partitions the vertex set: [n=3..9]',
        'PASS gamma canonical subcopies equal freshly built members: [n=0..9]',
        'PASS gamma factor JSON round-trips through verification: [n=5]',
        'PASS gamma exports are deterministic: [n=5]',
    ],
    ('extra_greedy_part', 'omega'): [
        'PASS omega vertex count equals lucas(n): [n=0..9]',
        'PASS omega graphs are connected: [n=0..9]',
        'PASS omega exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS omega cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'FAIL omega greedy-layered profile equals recurrence coefficients: first failure at n=8',
        'PASS omega structural profile equals recurrence coefficients: [n=0..9]',
        'PASS omega verify-factor passes on all three solvers: [n=0..9]',
        'PASS omega exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS omega dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS omega adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS omega cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS omega recursion split partitions the vertex set: [n=5..9]',
        'PASS omega canonical subcopies equal freshly built members: [n=0..9]',
        'PASS omega cross edges form a perfect matching on the smaller copy: [n=4..9]',
        'PASS omega order-4 member is the grid-plus-pendant graph: explicit isomorphism found',
        'PASS omega factor JSON round-trips through verification: [n=5]',
        'PASS omega exports are deterministic: [n=5]',
    ],
    ('extra_structural_part', 'gamma'): [
        'PASS gamma vertex count equals fib(n+2): [n=0..9]',
        'PASS gamma graphs are connected: [n=0..9]',
        'PASS gamma exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS gamma cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS gamma greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'FAIL gamma structural profile equals recurrence coefficients: first failure at n=4',
        'PASS gamma verify-factor passes on all three solvers: [n=0..9]',
        'PASS gamma exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS gamma adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS gamma cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS gamma recursion split partitions the vertex set: [n=3..9]',
        'PASS gamma canonical subcopies equal freshly built members: [n=0..9]',
        'PASS gamma factor JSON round-trips through verification: [n=5]',
        'PASS gamma exports are deterministic: [n=5]',
    ],
    ('extra_structural_part', 'omega'): [
        'PASS omega vertex count equals lucas(n): [n=0..9]',
        'PASS omega graphs are connected: [n=0..9]',
        'PASS omega exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS omega cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS omega greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'FAIL omega structural profile equals recurrence coefficients: first failure at n=4',
        'PASS omega verify-factor passes on all three solvers: [n=0..9]',
        'PASS omega exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS omega dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS omega adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS omega cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS omega recursion split partitions the vertex set: [n=5..9]',
        'PASS omega canonical subcopies equal freshly built members: [n=0..9]',
        'PASS omega cross edges form a perfect matching on the smaller copy: [n=4..9]',
        'PASS omega order-4 member is the grid-plus-pendant graph: explicit isomorphism found',
        'PASS omega factor JSON round-trips through verification: [n=5]',
        'PASS omega exports are deterministic: [n=5]',
    ],
    ('rejecting_verify', 'gamma'): [
        'PASS gamma vertex count equals fib(n+2): [n=0..9]',
        'PASS gamma graphs are connected: [n=0..9]',
        'PASS gamma exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS gamma cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS gamma greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma structural profile equals recurrence coefficients: [n=0..9]',
        'FAIL gamma verify-factor passes on all three solvers: first failure at n=5',
        'PASS gamma exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS gamma adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS gamma cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS gamma recursion split partitions the vertex set: [n=3..9]',
        'PASS gamma canonical subcopies equal freshly built members: [n=0..9]',
        'FAIL gamma factor JSON round-trips through verification: [n=5]',
        'PASS gamma exports are deterministic: [n=5]',
    ],
    ('rejecting_verify', 'omega'): [
        'PASS omega vertex count equals lucas(n): [n=0..9]',
        'PASS omega graphs are connected: [n=0..9]',
        'PASS omega exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS omega cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS omega greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS omega structural profile equals recurrence coefficients: [n=0..9]',
        'FAIL omega verify-factor passes on all three solvers: first failure at n=5',
        'PASS omega exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS omega dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS omega adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS omega cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS omega recursion split partitions the vertex set: [n=5..9]',
        'PASS omega canonical subcopies equal freshly built members: [n=0..9]',
        'PASS omega cross edges form a perfect matching on the smaller copy: [n=4..9]',
        'PASS omega order-4 member is the grid-plus-pendant graph: explicit isomorphism found',
        'FAIL omega factor JSON round-trips through verification: [n=5]',
        'PASS omega exports are deterministic: [n=5]',
    ],
    ('wrong_vertex_count', 'gamma'): [
        'FAIL gamma vertex count equals fib(n+2): first failure at n=3',
        'PASS gamma graphs are connected: [n=0..9]',
        'PASS gamma exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS gamma cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS gamma greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma structural profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma verify-factor passes on all three solvers: [n=0..9]',
        'PASS gamma exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS gamma adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS gamma cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS gamma recursion split partitions the vertex set: [n=3..9]',
        'PASS gamma canonical subcopies equal freshly built members: [n=0..9]',
        'PASS gamma factor JSON round-trips through verification: [n=5]',
        'PASS gamma exports are deterministic: [n=5]',
    ],
    ('wrong_vertex_count', 'omega'): [
        'FAIL omega vertex count equals lucas(n): first failure at n=3',
        'PASS omega graphs are connected: [n=0..9]',
        'PASS omega exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS omega cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS omega greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS omega structural profile equals recurrence coefficients: [n=0..9]',
        'PASS omega verify-factor passes on all three solvers: [n=0..9]',
        'PASS omega exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS omega dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS omega adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS omega cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS omega recursion split partitions the vertex set: [n=5..9]',
        'PASS omega canonical subcopies equal freshly built members: [n=0..9]',
        'PASS omega cross edges form a perfect matching on the smaller copy: [n=4..9]',
        'PASS omega order-4 member is the grid-plus-pendant graph: explicit isomorphism found',
        'PASS omega factor JSON round-trips through verification: [n=5]',
        'PASS omega exports are deterministic: [n=5]',
    ],
    ('undercounted_vertices', 'gamma'): [
        'FAIL gamma vertex count equals fib(n+2): first failure at n=9',
        'PASS gamma graphs are connected: [n=0..9]',
        'PASS gamma exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS gamma cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS gamma greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma structural profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma verify-factor passes on all three solvers: [n=0..9]',
        'PASS gamma exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS gamma adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS gamma cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS gamma recursion split partitions the vertex set: [n=3..9]',
        'PASS gamma canonical subcopies equal freshly built members: [n=0..9]',
        'PASS gamma factor JSON round-trips through verification: [n=5]',
        'PASS gamma exports are deterministic: [n=5]',
    ],
    ('undercounted_vertices', 'omega'): [
        'FAIL omega vertex count equals lucas(n): first failure at n=9',
        'PASS omega graphs are connected: [n=0..9]',
        'PASS omega exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS omega cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS omega greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS omega structural profile equals recurrence coefficients: [n=0..9]',
        'PASS omega verify-factor passes on all three solvers: [n=0..9]',
        'PASS omega exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS omega dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS omega adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS omega cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS omega recursion split partitions the vertex set: [n=5..9]',
        'PASS omega canonical subcopies equal freshly built members: [n=0..9]',
        'PASS omega cross edges form a perfect matching on the smaller copy: [n=4..9]',
        'PASS omega order-4 member is the grid-plus-pendant graph: explicit isomorphism found',
        'PASS omega factor JSON round-trips through verification: [n=5]',
        'PASS omega exports are deterministic: [n=5]',
    ],
    ('missing_edge_cube', 'gamma'): [
        'PASS gamma vertex count equals fib(n+2): [n=0..9]',
        'PASS gamma graphs are connected: [n=0..9]',
        'PASS gamma exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS gamma cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS gamma greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma structural profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma verify-factor passes on all three solvers: [n=0..9]',
        'PASS gamma exact-min profile equals recurrence coefficients: [n=0..9]',
        'FAIL gamma dimension-1 cubes are exactly the edge set: first failure at n=6',
        'PASS gamma adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'FAIL gamma cube enumeration equals coordinate subcubes at every dimension: first failure at n=6',
        'PASS gamma recursion split partitions the vertex set: [n=3..9]',
        'PASS gamma canonical subcopies equal freshly built members: [n=0..9]',
        'PASS gamma factor JSON round-trips through verification: [n=5]',
        'PASS gamma exports are deterministic: [n=5]',
    ],
    ('missing_edge_cube', 'omega'): [
        'PASS omega vertex count equals lucas(n): [n=0..9]',
        'PASS omega graphs are connected: [n=0..9]',
        'PASS omega exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS omega cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS omega greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS omega structural profile equals recurrence coefficients: [n=0..9]',
        'PASS omega verify-factor passes on all three solvers: [n=0..9]',
        'PASS omega exact-min profile equals recurrence coefficients: [n=0..9]',
        'FAIL omega dimension-1 cubes are exactly the edge set: first failure at n=6',
        'PASS omega adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'FAIL omega cube enumeration equals coordinate subcubes at every dimension: first failure at n=6',
        'PASS omega recursion split partitions the vertex set: [n=5..9]',
        'PASS omega canonical subcopies equal freshly built members: [n=0..9]',
        'PASS omega cross edges form a perfect matching on the smaller copy: [n=4..9]',
        'PASS omega order-4 member is the grid-plus-pendant graph: explicit isomorphism found',
        'PASS omega factor JSON round-trips through verification: [n=5]',
        'PASS omega exports are deterministic: [n=5]',
    ],
    ('no_isomorphism', 'gamma'): [
        'PASS gamma vertex count equals fib(n+2): [n=0..9]',
        'PASS gamma graphs are connected: [n=0..9]',
        'PASS gamma exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS gamma cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS gamma greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma structural profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma verify-factor passes on all three solvers: [n=0..9]',
        'PASS gamma exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS gamma adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS gamma cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS gamma recursion split partitions the vertex set: [n=3..9]',
        'PASS gamma canonical subcopies equal freshly built members: [n=0..9]',
        'PASS gamma factor JSON round-trips through verification: [n=5]',
        'PASS gamma exports are deterministic: [n=5]',
    ],
    ('no_isomorphism', 'omega'): [
        'PASS omega vertex count equals lucas(n): [n=0..9]',
        'PASS omega graphs are connected: [n=0..9]',
        'PASS omega exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS omega cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS omega greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS omega structural profile equals recurrence coefficients: [n=0..9]',
        'PASS omega verify-factor passes on all three solvers: [n=0..9]',
        'PASS omega exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS omega dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS omega adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS omega cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS omega recursion split partitions the vertex set: [n=5..9]',
        'PASS omega canonical subcopies equal freshly built members: [n=0..9]',
        'PASS omega cross edges form a perfect matching on the smaller copy: [n=4..9]',
        'FAIL omega order-4 member is the grid-plus-pendant graph: no isomorphism found',
        'PASS omega factor JSON round-trips through verification: [n=5]',
        'PASS omega exports are deterministic: [n=5]',
    ],
    ('rejected_subcopy', 'gamma'): [
        'PASS gamma vertex count equals fib(n+2): [n=0..9]',
        'PASS gamma graphs are connected: [n=0..9]',
        'PASS gamma exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS gamma cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS gamma greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma structural profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma verify-factor passes on all three solvers: [n=0..9]',
        'PASS gamma exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS gamma adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS gamma cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS gamma recursion split partitions the vertex set: [n=3..9]',
        'FAIL gamma canonical subcopies equal freshly built members: first failure at n=6 (first)',
        'PASS gamma factor JSON round-trips through verification: [n=5]',
        'PASS gamma exports are deterministic: [n=5]',
    ],
    ('rejected_subcopy', 'omega'): [
        'PASS omega vertex count equals lucas(n): [n=0..9]',
        'PASS omega graphs are connected: [n=0..9]',
        'PASS omega exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS omega cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS omega greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS omega structural profile equals recurrence coefficients: [n=0..9]',
        'PASS omega verify-factor passes on all three solvers: [n=0..9]',
        'PASS omega exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS omega dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS omega adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS omega cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS omega recursion split partitions the vertex set: [n=5..9]',
        'FAIL omega canonical subcopies equal freshly built members: first failure at n=6 (first)',
        'PASS omega cross edges form a perfect matching on the smaller copy: [n=4..9]',
        'PASS omega order-4 member is the grid-plus-pendant graph: explicit isomorphism found',
        'PASS omega factor JSON round-trips through verification: [n=5]',
        'PASS omega exports are deterministic: [n=5]',
    ],
    ('reversed_json', 'gamma'): [
        'PASS gamma vertex count equals fib(n+2): [n=0..9]',
        'PASS gamma graphs are connected: [n=0..9]',
        'PASS gamma exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS gamma cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS gamma greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma structural profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma verify-factor passes on all three solvers: [n=0..9]',
        'PASS gamma exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS gamma adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS gamma cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS gamma recursion split partitions the vertex set: [n=3..9]',
        'PASS gamma canonical subcopies equal freshly built members: [n=0..9]',
        'FAIL gamma factor JSON round-trips through verification: [n=5]',
        'PASS gamma exports are deterministic: [n=5]',
    ],
    ('reversed_json', 'omega'): [
        'PASS omega vertex count equals lucas(n): [n=0..9]',
        'PASS omega graphs are connected: [n=0..9]',
        'PASS omega exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS omega cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS omega greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS omega structural profile equals recurrence coefficients: [n=0..9]',
        'PASS omega verify-factor passes on all three solvers: [n=0..9]',
        'PASS omega exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS omega dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS omega adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS omega cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS omega recursion split partitions the vertex set: [n=5..9]',
        'PASS omega canonical subcopies equal freshly built members: [n=0..9]',
        'PASS omega cross edges form a perfect matching on the smaller copy: [n=4..9]',
        'PASS omega order-4 member is the grid-plus-pendant graph: explicit isomorphism found',
        'FAIL omega factor JSON round-trips through verification: [n=5]',
        'PASS omega exports are deterministic: [n=5]',
    ],
    ('drifting_export', 'gamma'): [
        'PASS gamma vertex count equals fib(n+2): [n=0..9]',
        'PASS gamma graphs are connected: [n=0..9]',
        'PASS gamma exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS gamma cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS gamma greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma structural profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma verify-factor passes on all three solvers: [n=0..9]',
        'PASS gamma exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS gamma adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS gamma cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS gamma recursion split partitions the vertex set: [n=3..9]',
        'PASS gamma canonical subcopies equal freshly built members: [n=0..9]',
        'PASS gamma factor JSON round-trips through verification: [n=5]',
        'FAIL gamma exports are deterministic: [n=5]',
    ],
    ('drifting_export', 'omega'): [
        'PASS omega vertex count equals lucas(n): [n=0..9]',
        'PASS omega graphs are connected: [n=0..9]',
        'PASS omega exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS omega cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS omega greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS omega structural profile equals recurrence coefficients: [n=0..9]',
        'PASS omega verify-factor passes on all three solvers: [n=0..9]',
        'PASS omega exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS omega dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS omega adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS omega cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS omega recursion split partitions the vertex set: [n=5..9]',
        'PASS omega canonical subcopies equal freshly built members: [n=0..9]',
        'PASS omega cross edges form a perfect matching on the smaller copy: [n=4..9]',
        'PASS omega order-4 member is the grid-plus-pendant graph: explicit isomorphism found',
        'PASS omega factor JSON round-trips through verification: [n=5]',
        'FAIL omega exports are deterministic: [n=5]',
    ],
    ('short_witness', 'gamma'): [
        'PASS gamma vertex count equals fib(n+2): [n=0..9]',
        'PASS gamma graphs are connected: [n=0..9]',
        'PASS gamma exact-min part count equals padovan(n+1): [n=0..9]',
        'FAIL gamma cube-independent witness has padovan(n+1) vertices: first failure at n=6',
        'PASS gamma greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma structural profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma verify-factor passes on all three solvers: [n=0..9]',
        'PASS gamma exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS gamma adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS gamma cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS gamma recursion split partitions the vertex set: [n=3..9]',
        'PASS gamma canonical subcopies equal freshly built members: [n=0..9]',
        'PASS gamma factor JSON round-trips through verification: [n=5]',
        'PASS gamma exports are deterministic: [n=5]',
    ],
    ('short_witness', 'omega'): [
        'PASS omega vertex count equals lucas(n): [n=0..9]',
        'PASS omega graphs are connected: [n=0..9]',
        'PASS omega exact-min part count equals padovan(n+1): [n=0..9]',
        'FAIL omega cube-independent witness has padovan(n+1) vertices: first failure at n=6',
        'PASS omega greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS omega structural profile equals recurrence coefficients: [n=0..9]',
        'PASS omega verify-factor passes on all three solvers: [n=0..9]',
        'PASS omega exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS omega dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS omega adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS omega cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS omega recursion split partitions the vertex set: [n=5..9]',
        'PASS omega canonical subcopies equal freshly built members: [n=0..9]',
        'PASS omega cross edges form a perfect matching on the smaller copy: [n=4..9]',
        'PASS omega order-4 member is the grid-plus-pendant graph: explicit isomorphism found',
        'PASS omega factor JSON round-trips through verification: [n=5]',
        'PASS omega exports are deterministic: [n=5]',
    ],
    ('clashing_witness', 'gamma'): [
        'PASS gamma vertex count equals fib(n+2): [n=0..9]',
        'PASS gamma graphs are connected: [n=0..9]',
        'PASS gamma exact-min part count equals padovan(n+1): [n=0..9]',
        'FAIL gamma cube-independent witness has padovan(n+1) vertices: first failure at n=4',
        'PASS gamma greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma structural profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma verify-factor passes on all three solvers: [n=0..9]',
        'PASS gamma exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS gamma adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS gamma cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS gamma recursion split partitions the vertex set: [n=3..9]',
        'PASS gamma canonical subcopies equal freshly built members: [n=0..9]',
        'PASS gamma factor JSON round-trips through verification: [n=5]',
        'PASS gamma exports are deterministic: [n=5]',
    ],
    ('clashing_witness', 'omega'): [
        'PASS omega vertex count equals lucas(n): [n=0..9]',
        'PASS omega graphs are connected: [n=0..9]',
        'PASS omega exact-min part count equals padovan(n+1): [n=0..9]',
        'FAIL omega cube-independent witness has padovan(n+1) vertices: first failure at n=4',
        'PASS omega greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS omega structural profile equals recurrence coefficients: [n=0..9]',
        'PASS omega verify-factor passes on all three solvers: [n=0..9]',
        'PASS omega exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS omega dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS omega adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'PASS omega cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS omega recursion split partitions the vertex set: [n=5..9]',
        'PASS omega canonical subcopies equal freshly built members: [n=0..9]',
        'PASS omega cross edges form a perfect matching on the smaller copy: [n=4..9]',
        'PASS omega order-4 member is the grid-plus-pendant graph: explicit isomorphism found',
        'PASS omega factor JSON round-trips through verification: [n=5]',
        'PASS omega exports are deterministic: [n=5]',
    ],
    ('dropped_cube_per_level', 'gamma'): [
        'PASS gamma vertex count equals fib(n+2): [n=0..9]',
        'PASS gamma graphs are connected: [n=0..9]',
        'PASS gamma exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS gamma cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS gamma greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma structural profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma verify-factor passes on all three solvers: [n=0..9]',
        'PASS gamma exact-min profile equals recurrence coefficients: [n=0..9]',
        'FAIL gamma dimension-1 cubes are exactly the edge set: first failure at n=7',
        'PASS gamma adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'FAIL gamma cube enumeration equals coordinate subcubes at every dimension: first failure at n=7',
        'PASS gamma recursion split partitions the vertex set: [n=3..9]',
        'PASS gamma canonical subcopies equal freshly built members: [n=0..9]',
        'PASS gamma factor JSON round-trips through verification: [n=5]',
        'PASS gamma exports are deterministic: [n=5]',
    ],
    ('dropped_cube_per_level', 'omega'): [
        'PASS omega vertex count equals lucas(n): [n=0..9]',
        'PASS omega graphs are connected: [n=0..9]',
        'PASS omega exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS omega cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS omega greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS omega structural profile equals recurrence coefficients: [n=0..9]',
        'PASS omega verify-factor passes on all three solvers: [n=0..9]',
        'PASS omega exact-min profile equals recurrence coefficients: [n=0..9]',
        'FAIL omega dimension-1 cubes are exactly the edge set: first failure at n=7',
        'PASS omega adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'FAIL omega cube enumeration equals coordinate subcubes at every dimension: first failure at n=7',
        'PASS omega recursion split partitions the vertex set: [n=5..9]',
        'PASS omega canonical subcopies equal freshly built members: [n=0..9]',
        'PASS omega cross edges form a perfect matching on the smaller copy: [n=4..9]',
        'PASS omega order-4 member is the grid-plus-pendant graph: explicit isomorphism found',
        'PASS omega factor JSON round-trips through verification: [n=5]',
        'PASS omega exports are deterministic: [n=5]',
    ],
    ('dropped_subcube', 'gamma'): [
        'PASS gamma vertex count equals fib(n+2): [n=0..9]',
        'PASS gamma graphs are connected: [n=0..9]',
        'FAIL gamma exact-min part count equals padovan(n+1): first failure at n=9',
        'FAIL gamma cube-independent witness has padovan(n+1) vertices: first failure at n=9',
        'FAIL gamma greedy-layered profile equals recurrence coefficients: first failure at n=9',
        'PASS gamma structural profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma verify-factor passes on all three solvers: [n=0..9]',
        'INFO gamma exact-min profile vs recurrence coefficients: minimum-count factor with a different profile at n=[9]',
        'PASS gamma dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS gamma adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'FAIL gamma cube enumeration equals coordinate subcubes at every dimension: first failure at n=8',
        'PASS gamma recursion split partitions the vertex set: [n=3..9]',
        'PASS gamma canonical subcopies equal freshly built members: [n=0..9]',
        'PASS gamma factor JSON round-trips through verification: [n=5]',
        'PASS gamma exports are deterministic: [n=5]',
    ],
    ('dropped_subcube', 'omega'): [
        'PASS omega vertex count equals lucas(n): [n=0..9]',
        'PASS omega graphs are connected: [n=0..9]',
        'FAIL omega exact-min part count equals padovan(n+1): first failure at n=9',
        'FAIL omega cube-independent witness has padovan(n+1) vertices: first failure at n=9',
        'FAIL omega greedy-layered profile equals recurrence coefficients: first failure at n=9',
        'PASS omega structural profile equals recurrence coefficients: [n=0..9]',
        'PASS omega verify-factor passes on all three solvers: [n=0..9]',
        'INFO omega exact-min profile vs recurrence coefficients: minimum-count factor with a different profile at n=[9]',
        'PASS omega dimension-1 cubes are exactly the edge set: [n=0..9]',
        'PASS omega adjacency is Hamming distance 1 on the label coordinates: [n=0..9]',
        'FAIL omega cube enumeration equals coordinate subcubes at every dimension: first failure at n=8',
        'PASS omega recursion split partitions the vertex set: [n=5..9]',
        'PASS omega canonical subcopies equal freshly built members: [n=0..9]',
        'PASS omega cross edges form a perfect matching on the smaller copy: [n=4..9]',
        'PASS omega order-4 member is the grid-plus-pendant graph: explicit isomorphism found',
        'PASS omega factor JSON round-trips through verification: [n=5]',
        'PASS omega exports are deterministic: [n=5]',
    ],
    ('dropped_edge_subcube', 'gamma'): [
        'PASS gamma vertex count equals fib(n+2): [n=0..9]',
        'PASS gamma graphs are connected: [n=0..9]',
        'PASS gamma exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS gamma cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS gamma greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma structural profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma verify-factor passes on all three solvers: [n=0..9]',
        'PASS gamma exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma dimension-1 cubes are exactly the edge set: [n=0..9]',
        'FAIL gamma adjacency is Hamming distance 1 on the label coordinates: first failure at n=8',
        'FAIL gamma cube enumeration equals coordinate subcubes at every dimension: first failure at n=8',
        'PASS gamma recursion split partitions the vertex set: [n=3..9]',
        'PASS gamma canonical subcopies equal freshly built members: [n=0..9]',
        'PASS gamma factor JSON round-trips through verification: [n=5]',
        'PASS gamma exports are deterministic: [n=5]',
    ],
    ('dropped_edge_subcube', 'omega'): [
        'PASS omega vertex count equals lucas(n): [n=0..9]',
        'PASS omega graphs are connected: [n=0..9]',
        'PASS omega exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS omega cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS omega greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS omega structural profile equals recurrence coefficients: [n=0..9]',
        'PASS omega verify-factor passes on all three solvers: [n=0..9]',
        'PASS omega exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS omega dimension-1 cubes are exactly the edge set: [n=0..9]',
        'FAIL omega adjacency is Hamming distance 1 on the label coordinates: first failure at n=8',
        'FAIL omega cube enumeration equals coordinate subcubes at every dimension: first failure at n=8',
        'PASS omega recursion split partitions the vertex set: [n=5..9]',
        'PASS omega canonical subcopies equal freshly built members: [n=0..9]',
        'PASS omega cross edges form a perfect matching on the smaller copy: [n=4..9]',
        'PASS omega order-4 member is the grid-plus-pendant graph: explicit isomorphism found',
        'PASS omega factor JSON round-trips through verification: [n=5]',
        'PASS omega exports are deterministic: [n=5]',
    ],
    ('misread_label', 'gamma'): [
        'PASS gamma vertex count equals fib(n+2): [n=0..9]',
        'PASS gamma graphs are connected: [n=0..9]',
        'PASS gamma exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS gamma cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS gamma greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma structural profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma verify-factor passes on all three solvers: [n=0..9]',
        'PASS gamma exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma dimension-1 cubes are exactly the edge set: [n=0..9]',
        'FAIL gamma adjacency is Hamming distance 1 on the label coordinates: first failure at n=8',
        'PASS gamma cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS gamma recursion split partitions the vertex set: [n=3..9]',
        'PASS gamma canonical subcopies equal freshly built members: [n=0..9]',
        'PASS gamma factor JSON round-trips through verification: [n=5]',
        'PASS gamma exports are deterministic: [n=5]',
    ],
    ('misread_label', 'omega'): [
        'PASS omega vertex count equals lucas(n): [n=0..9]',
        'PASS omega graphs are connected: [n=0..9]',
        'PASS omega exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS omega cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS omega greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS omega structural profile equals recurrence coefficients: [n=0..9]',
        'PASS omega verify-factor passes on all three solvers: [n=0..9]',
        'PASS omega exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS omega dimension-1 cubes are exactly the edge set: [n=0..9]',
        'FAIL omega adjacency is Hamming distance 1 on the label coordinates: first failure at n=8',
        'PASS omega cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS omega recursion split partitions the vertex set: [n=5..9]',
        'PASS omega canonical subcopies equal freshly built members: [n=0..9]',
        'PASS omega cross edges form a perfect matching on the smaller copy: [n=4..9]',
        'PASS omega order-4 member is the grid-plus-pendant graph: explicit isomorphism found',
        'PASS omega factor JSON round-trips through verification: [n=5]',
        'PASS omega exports are deterministic: [n=5]',
    ],
    ('unreadable_label', 'gamma'): [
        'PASS gamma vertex count equals fib(n+2): [n=0..9]',
        'PASS gamma graphs are connected: [n=0..9]',
        'PASS gamma exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS gamma cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS gamma greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma structural profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma verify-factor passes on all three solvers: [n=0..9]',
        'PASS gamma exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS gamma dimension-1 cubes are exactly the edge set: [n=0..9]',
        'FAIL gamma adjacency is Hamming distance 1 on the label coordinates: first failure at n=8',
        'PASS gamma cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS gamma recursion split partitions the vertex set: [n=3..9]',
        'PASS gamma canonical subcopies equal freshly built members: [n=0..9]',
        'PASS gamma factor JSON round-trips through verification: [n=5]',
        'PASS gamma exports are deterministic: [n=5]',
    ],
    ('unreadable_label', 'omega'): [
        'PASS omega vertex count equals lucas(n): [n=0..9]',
        'PASS omega graphs are connected: [n=0..9]',
        'PASS omega exact-min part count equals padovan(n+1): [n=0..9]',
        'PASS omega cube-independent witness has padovan(n+1) vertices: [n=0..9]',
        'PASS omega greedy-layered profile equals recurrence coefficients: [n=0..9]',
        'PASS omega structural profile equals recurrence coefficients: [n=0..9]',
        'PASS omega verify-factor passes on all three solvers: [n=0..9]',
        'PASS omega exact-min profile equals recurrence coefficients: [n=0..9]',
        'PASS omega dimension-1 cubes are exactly the edge set: [n=0..9]',
        'FAIL omega adjacency is Hamming distance 1 on the label coordinates: first failure at n=8',
        'PASS omega cube enumeration equals coordinate subcubes at every dimension: [n=0..9]',
        'PASS omega recursion split partitions the vertex set: [n=5..9]',
        'PASS omega canonical subcopies equal freshly built members: [n=0..9]',
        'PASS omega cross edges form a perfect matching on the smaller copy: [n=4..9]',
        'PASS omega order-4 member is the grid-plus-pendant graph: explicit isomorphism found',
        'PASS omega factor JSON round-trips through verification: [n=5]',
        'PASS omega exports are deterministic: [n=5]',
    ],
}


@pytest.mark.parametrize("family", ["gamma", "omega"])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_oracle_audit_under_an_injected_fault(monkeypatch, fault, family):
    FAULTS[fault](monkeypatch)
    lines = [e.line() for e in audit.oracle_audit(family, 9)]
    assert lines == EXPECTED[(fault, family)]


def _with_subcopy(g, sub, adj=None):
    return dataclasses.replace(g, adj=g.adj if adj is None else adj, subcopies={"bad": sub})


def test_canonical_subgraph_rejects_labels_that_do_not_strip_onto_the_target():
    g = build_graph("gamma", 5)
    second = g.subcopies["second"]  # the "10" part, the order-3 member
    g = _with_subcopy(g, dataclasses.replace(second, prefix="1"))
    with pytest.raises(RuntimeError, match="subcopy 'bad'"):
        canonical_subgraph(g, "bad")


def test_canonical_subgraph_rejects_two_members_stripping_to_one_label():
    g = build_graph("gamma", 5)
    first = g.subcopies["first"]  # "00101" is in it and strips to "0101", as "10101" does
    extra = (g.index_of("10101"),)
    g = _with_subcopy(g, dataclasses.replace(first, vertices=tuple(sorted(first.vertices + extra))))
    with pytest.raises(RuntimeError, match="subcopy 'bad'"):
        canonical_subgraph(g, "bad")


def _toggled(g, u, v):
    adj = list(g.adj)
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u
    return tuple(adj)


def test_canonical_subgraph_rejects_a_missing_induced_edge():
    g = build_graph("omega", 6)
    first = g.subcopies["first"]
    u, v = next((u, v) for u, v in g.edges() if u in first.vertices and v in first.vertices)
    g = _with_subcopy(g, first, _toggled(g, u, v))
    with pytest.raises(RuntimeError, match="subcopy 'bad'"):
        canonical_subgraph(g, "bad")


def test_canonical_subgraph_rejects_an_extra_induced_edge():
    g = build_graph("gamma", 6)
    third = g.subcopies["third"]
    u, v = next(
        (u, v)
        for u in third.vertices
        for v in third.vertices
        if u < v and not g.adj[u] >> v & 1
    )
    g = _with_subcopy(g, third, _toggled(g, u, v))
    with pytest.raises(RuntimeError, match="subcopy 'bad'"):
        canonical_subgraph(g, "bad")


CROSS_EDGES = "omega cross edges form a perfect matching on the smaller copy"


def test_omega_cross_edge_entry_names_every_order_it_checked():
    # the entry's line at order 16, PASS ...: [n=4..16], is pinned by the
    # golden of verify --suite oracle --max-n 16
    assert not [e for e in audit.oracle_audit("omega", 3) if e.name == CROSS_EDGES]


def test_omega_cross_edge_entry_reaches_the_construction_cap(monkeypatch):
    # the audit reads the cap at call time; a cap of 10 keeps the run short,
    # and the real cap's line is pinned by the max-16 golden
    monkeypatch.setattr(graphs, "DEFAULT_MAX_N", 10)
    clean = audit._second_copy_matched
    monkeypatch.setattr(audit, "_second_copy_matched", lambda g: g.n != 10 and clean(g))
    [entry] = [e for e in audit.oracle_audit("omega", 11) if e.name == CROSS_EDGES]
    assert entry.line() == f"FAIL {CROSS_EDGES}: first failure at n=10"


def test_oracle_audit_lists_each_members_cubes_once_per_enumerator(monkeypatch):
    # per order: enumerate_cubes once, by the audit, since the solvers read
    # a member's subcubes; _subcubes four times, by the audit, exact search,
    # greedy and cube_independent_set
    calls = dict.fromkeys(("enumerate_cubes", "_subcubes"), 0)
    for name in calls:
        clean = getattr(factors, name)

        def counted(*args, _name=name, _clean=clean, **kwargs):
            calls[_name] += 1
            return _clean(*args, **kwargs)

        monkeypatch.setattr(factors, name, counted)
    audit.oracle_audit("gamma", 8)
    assert calls == {"enumerate_cubes": 9, "_subcubes": 36}

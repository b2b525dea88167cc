from __future__ import annotations

import hashlib
import itertools
import json
import random
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubefactor import factors, graphs
from cubefactor.factors import (
    CubeFactor,
    FactorProfile,
    FactorViolation,
    InducedCube,
    _cube_independent,
    _CubeTable,
    _first_min_cover,
    _is_induced_cube,
    _packing_bound,
    check_witness,
    cube_independent_set,
    enumerate_cubes,
    exact_min_factor,
    factor_from_json,
    factor_to_json,
    greedy_layered_factor,
    structural_factor,
    verify_factor,
)
from cubefactor.graphs import build_graph, custom_graph, find_isomorphism
from cubefactor.polynomials import qpoly_rec
from cubefactor.sequences import padovan


def ids_of(g, labels):
    return tuple(sorted(g.index_of(lab) for lab in labels))


def induced_edge_count(g, vertices):
    members = set(vertices)
    return sum(
        1 for v in vertices for u in members if u > v and g.adj[v] >> u & 1
    )


def test_enumerate_cubes_on_the_three_vertex_path():
    g = build_graph("gamma", 2)
    levels = enumerate_cubes(g)
    assert levels[0] == [((0,), 1), ((1,), 2), ((2,), 4)]
    assert [set(g.labels[v] for v in verts) for verts, _ in levels[1]] == [
        {"00", "01"}, {"00", "10"},
    ]


def test_enumerate_cubes_trivial_graph():
    # one vertex allows dimension 0 only, so there is no level 1
    levels = enumerate_cubes(build_graph("gamma", 0))
    assert levels == [[((0,), 1)]]
    # graphs with no edge: no vertex still lists level 0, empty, and three
    # vertices list level 1, empty
    for count, expected in [
        (0, [[]]),
        (1, levels),
        (3, [[((0,), 1), ((1,), 2), ((2,), 4)], []]),
    ]:
        stats = {}
        assert enumerate_cubes(graph_on(count, []), stats=stats) == expected
        assert stats == {"joins": 0}


def test_induced_cube_repr_eq_and_hash_read_its_two_fields():
    cube = InducedCube(2, (0, 1, 3, 6))
    assert repr(cube) == "InducedCube(dimension=2, vertices=(0, 1, 3, 6))"
    assert cube == InducedCube(2, (0, 1, 3, 6)) != InducedCube(1, (0, 1, 3, 6))
    assert hash(cube) == hash((2, (0, 1, 3, 6)))
    with pytest.raises(TypeError):
        InducedCube(0, (0,), 1)  # no third field: a part carries no mask


def test_induced_cube_rejects_a_negative_vertex_id():
    with pytest.raises(ValueError):
        InducedCube(1, (-1, 0))


def test_a_huge_vertex_id_is_rejected_without_building_its_mask():
    tracemalloc.start()
    try:
        cube = InducedCube(0, (10**8,))
        outcome = verify_factor(build_graph("gamma", 2), CubeFactor((cube,)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(outcome, FactorViolation)
    assert outcome.kind == "bad-vertex"
    assert peak < 1_000_000  # the mask, 10**8 + 1 bits, would take 12.5 MB


def test_enumerate_dimension_one_is_the_edge_set():
    for family in ("gamma", "omega"):
        for n in range(7):
            g = build_graph(family, n)
            ones = enumerate_cubes(g)[1:2]  # order 0 has one vertex and no level 1
            assert sorted(verts for level in ones for verts, _ in level) == sorted(g.edges())


def test_enumerated_cubes_have_hypercube_edge_counts():
    for g in (build_graph("gamma", 5), build_graph("omega", 5)):
        levels = enumerate_cubes(g)
        for k, cubes in enumerate(levels):
            for verts, mask in cubes:
                assert len(verts) == 2**k
                assert mask == sum(1 << v for v in verts)
                assert induced_edge_count(g, verts) == k * 2 ** (k - 1) if k else True


def test_gamma5_contains_the_free_position_3_cube():
    g = build_graph("gamma", 5)
    subset = ids_of(g, [a + "0" + b + "0" + c for a in "01" for b in "01" for c in "01"])
    threes = enumerate_cubes(g)[3]
    assert subset in [verts for verts, _ in threes]


def test_exact_min_factor_small_cases():
    g3 = build_graph("gamma", 3)
    factor = exact_min_factor(g3)
    parts = {tuple(g3.labels[v] for v in p.vertices) for p in factor.parts}
    assert parts == {("000", "001", "100", "101"), ("010",)}
    assert factor.profile().counts == (1, 0, 1)

    assert exact_min_factor(build_graph("omega", 4)).profile().counts == (1, 1, 1)
    assert exact_min_factor(build_graph("gamma", 1)).profile().counts == (0, 1)


def first_minimum_cover(g):
    """Brute-force reference: walk every cover, with no bound and no memo,
    branching on the lowest uncovered vertex over all enumerated cubes in
    descending dimension then canonical order; return the first cover with
    the fewest parts, its parts in the solvers' output order."""
    nv = g.vertex_count
    full = (1 << nv) - 1
    levels = enumerate_cubes(g)
    ordered = [(verts, sum(1 << v for v in verts)) for level in reversed(levels) for verts, _ in level]
    best = None
    chosen = []

    def walk(covered):
        nonlocal best
        if covered == full:
            if best is None or len(chosen) < len(best):
                best = list(chosen)
            return
        v = next(u for u in range(nv) if not covered >> u & 1)
        for verts, mask in ordered:
            if mask >> v & 1 and not mask & covered:
                chosen.append(verts)
                walk(covered | mask)
                chosen.pop()

    walk(0)
    best.sort(key=lambda verts: (-len(verts), verts))
    return CubeFactor(tuple(InducedCube(len(verts).bit_length() - 1, verts) for verts in best))


def first_maximum_packings(g):
    """Brute-force reference for the layered greedy: for each dimension k
    from the top down, walk every packing of k-cubes inside the remaining
    vertices, with no bound and no memo, branching on the lowest vertex a
    k-cube still fits: pack each of its k-cubes in canonical order, then
    leave it out; keep the first packing with the most cubes and delete
    its vertices. Single vertices fill the rest."""
    nv = g.vertex_count
    levels = enumerate_cubes(g)
    remaining = (1 << nv) - 1
    parts = []
    for level in reversed(levels[1:]):
        cubes = [(verts, sum(1 << v for v in verts)) for verts, _ in level]
        best = None
        chosen = []

        def walk(avail):
            nonlocal best
            fitting = [(verts, mask) for verts, mask in cubes if not mask & ~avail]
            if not fitting:
                if best is None or len(chosen) > len(best):
                    best = list(chosen)
                return
            v = min(verts[0] for verts, _ in fitting)
            for verts, mask in fitting:
                if mask >> v & 1:
                    chosen.append((verts, mask))
                    walk(avail & ~mask)
                    chosen.pop()
            walk(avail & ~(1 << v))

        walk(remaining)
        for verts, mask in sorted(best):
            parts.append(InducedCube(len(verts).bit_length() - 1, verts))
            remaining &= ~mask
    parts.extend(InducedCube(0, (v,)) for v in range(nv) if remaining >> v & 1)
    return CubeFactor(tuple(parts))


@st.composite
def family_subgraphs(draw, orders=range(7), most=16):
    """Induced subgraphs of gamma/omega members of the given orders, with at
    most ``most`` kept vertices (None: no limit). The default, order <= 6
    and 16 vertices, keeps the unbounded reference walks short."""
    g = build_graph(draw(st.sampled_from(["gamma", "omega"])), draw(st.sampled_from(orders)))
    flags = draw(st.lists(st.booleans(), min_size=g.vertex_count, max_size=g.vertex_count))
    keep = [v for v, kept in enumerate(flags) if kept][:most]
    edges = [(g.labels[u], g.labels[v]) for u, v in g.edges() if u in keep and v in keep]
    return custom_graph([g.labels[v] for v in keep], edges)


@st.composite
def small_graphs(draw):
    nv = draw(st.integers(0, 10))
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    labels = [f"v{i}" for i in range(nv)]
    edges = [(labels[u], labels[v]) for (u, v), keep in zip(pairs, present) if keep]
    return custom_graph(labels, edges)


@settings(max_examples=100, deadline=None)
@given(family_subgraphs())
def test_exact_min_factor_is_the_first_optimal_cover_on_family_subgraphs(g):
    assert exact_min_factor(g) == first_minimum_cover(g)


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_exact_min_factor_is_the_first_optimal_cover_on_small_graphs(g):
    assert exact_min_factor(g) == first_minimum_cover(g)


@settings(max_examples=100, deadline=None)
@given(family_subgraphs())
def test_greedy_is_the_first_maximum_packing_per_layer_on_family_subgraphs(g):
    assert greedy_layered_factor(g) == first_maximum_packings(g)


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_greedy_is_the_first_maximum_packing_per_layer_on_small_graphs(g):
    assert greedy_layered_factor(g) == first_maximum_packings(g)


def dimensions(g):
    """floor(log2 |V|): no induced cube of g is larger than its vertex set."""
    return max(g.vertex_count.bit_length() - 1, 0)


def brute_force_cubes(g):
    """Every vertex subset of size 2**k that _is_induced_cube accepts, per
    level k = 0..dimensions(g), with the mask of its vertices. A vertex of
    an induced k-cube has degree >= k, so only those vertices are
    combined."""
    return [
        [
            (subset, sum(1 << v for v in subset))
            for subset in itertools.combinations(
                [v for v in range(g.vertex_count) if g.adj[v].bit_count() >= k], 2**k
            )
            if _is_induced_cube(g, subset, k)
        ]
        for k in range(dimensions(g) + 1)
    ]


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_enumerate_cubes_matches_brute_force_on_small_graphs(g):
    levels = enumerate_cubes(g)
    assert len(levels) == dimensions(g) + 1
    assert levels == brute_force_cubes(g)


@settings(max_examples=100, deadline=None)
@given(family_subgraphs())
def test_enumerate_cubes_matches_brute_force_on_family_subgraphs(g):
    levels = enumerate_cubes(g)
    assert len(levels) == dimensions(g) + 1
    assert levels == brute_force_cubes(g)


def graph_on(count, edges):
    """custom_graph on vertices 0..count-1, labelled so ids equal the numbers."""
    labels = [f"v{v:02d}" for v in range(count)]
    return custom_graph(labels, [(labels[u], labels[v]) for u, v in edges])


# Graphs that reach the extension's dead ends, which no family member does:
# several candidate neighbours w of min(a) (K_{2,3}, three induced 4-cycles);
# a perfect cross matching that is not an isomorphism (two 4-cycles matched
# 0-4, 1-6, 2-5, 3-7: 3-regular, with a 5-cycle, no 3-cube); images holding
# two neighbours of min(a) (the wheel, hub 0); a vertex of a with two
# neighbours in b (the diamond, a = {0, 1}, b = {2, 3}); several candidate
# images of one coordinate (K_{3,3}: at a = (0, 3), w = 4, coordinate 1 has
# the images 1 and 2); a complete image that is no cube (two 4-cycles
# matched c-(c + 4), the second with the chord 4-7: the image {4, 5, 6, 7}
# of the 4-cycle {0, 1, 2, 3} holds the chord); an image adjacent to some
# earlier images B[c ^ 2**i] but not to all (two 3-cubes matched
# c-(8 + p[c]), p swapping 5 and 6, so the matching is no isomorphism); and
# Q_4, with C(4, k) * 2**(4 - k) k-cubes.
Q_3_EDGES = [(u, u | 1 << d) for u in range(8) for d in range(3) if not u >> d & 1]
REJECTING_GRAPHS = {
    "K_2,3": graph_on(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)]),
    "twisted 4-cycles": graph_on(
        8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
            (0, 4), (1, 6), (2, 5), (3, 7)]
    ),
    "wheel": graph_on(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)]),
    "diamond": graph_on(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    "K_3,3": graph_on(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)]),
    "chorded twin 4-cycles": graph_on(
        8, [(0, 1), (0, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 7), (6, 7), (4, 7)]
        + [(c, c + 4) for c in range(4)]
    ),
    "twisted twin 3-cubes": graph_on(
        16, Q_3_EDGES + [(u + 8, v + 8) for u, v in Q_3_EDGES]
        + [(c, 8 + p) for c, p in enumerate((0, 1, 2, 3, 4, 6, 5, 7))]
    ),
    "Q_4": graph_on(16, [(u, u | 1 << d) for u in range(16) for d in range(4) if not u >> d & 1]),
}


@pytest.mark.parametrize("name", REJECTING_GRAPHS)
def test_enumerate_cubes_matches_brute_force_where_joins_fail(name):
    g = REJECTING_GRAPHS[name]
    stats = {}
    levels = enumerate_cubes(g, stats=stats)
    assert len(levels) == dimensions(g) + 1
    assert levels == brute_force_cubes(g)
    # level 1 is read off the rows, and from level 2 up every complete image
    # looked up in the level below is a cube there, but the chorded 4-cycle
    # {4, 5, 6, 7}
    cubes = sum(len(level) for level in levels[2:])
    assert stats["joins"] == cubes + (name == "chorded twin 4-cycles")
    if name == "K_2,3":
        assert [len(level) for level in levels] == [5, 6, 3]
    if name == "K_3,3":
        assert [len(level) for level in levels] == [6, 9, 9]
    if name == "chorded twin 4-cycles":
        assert [len(level) for level in levels] == [8, 13, 5, 0]
    if name == "twisted twin 3-cubes":
        assert [len(level) for level in levels] == [16, 32, 22, 4, 0]
    if name == "Q_4":
        assert [len(level) for level in levels] == [comb(4, k) * 2 ** (4 - k) for k in range(5)]


def assert_witness_matches_brute_force(g, subset):
    """cube_independent_set meets no brute-force cube twice and is no larger
    than the first minimum cover; check_witness lists exactly the pairs of
    ``subset`` that some brute-force cube of dimension >= 1 contains."""
    cubes = [verts for level in brute_force_cubes(g)[1:] for verts, _ in level]
    witness = cube_independent_set(g)
    assert list(witness) == sorted(set(witness))
    assert all(len(set(verts) & set(witness)) <= 1 for verts in cubes)
    assert check_witness(g, witness) == []
    assert len(witness) <= first_minimum_cover(g).part_count
    shared = {
        (u, v) for u, v in itertools.combinations(sorted(set(subset)), 2)
        if any(u in verts and v in verts for verts in cubes)
    }
    assert check_witness(g, subset) == sorted(shared)


@settings(max_examples=100, deadline=None)
@given(small_graphs(), st.data())
def test_witness_matches_brute_force_on_small_graphs(g, data):
    subset = data.draw(st.lists(st.integers(0, max(g.vertex_count - 1, 0)), max_size=g.vertex_count))
    assert_witness_matches_brute_force(g, subset)


@settings(max_examples=100, deadline=None)
@given(family_subgraphs(), st.data())
def test_witness_matches_brute_force_on_family_subgraphs(g, data):
    subset = data.draw(st.lists(st.integers(0, max(g.vertex_count - 1, 0)), max_size=g.vertex_count))
    assert_witness_matches_brute_force(g, subset)


def check_early_stop(g):
    """Exact search told the witness size returns the cover the untold core
    returns, in no more nodes, and reports the witness size."""
    stats = {}
    factor = exact_min_factor(g, stats=stats)
    lower = len(cube_independent_set(g))
    assert stats["lower_bound"] == lower <= factor.part_count
    nv = g.vertex_count
    told = dict(nodes=0, bound_prunes=0, memo_hits=0)
    untold = dict(nodes=0, bound_prunes=0, memo_hits=0)
    table = _CubeTable(enumerate_cubes(g)[:0:-1], (1 << nv) - 1)
    cover = _first_min_cover(table, told, lower)
    assert cover == _first_min_cover(table, untold)
    assert told == {key: stats[key] for key in told}
    assert told["nodes"] <= untold["nodes"]


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_the_witness_only_cuts_exact_search_on_small_graphs(g):
    check_early_stop(g)


@settings(max_examples=100, deadline=None)
@given(family_subgraphs())
def test_the_witness_only_cuts_exact_search_on_family_subgraphs(g):
    check_early_stop(g)


def check_node_bound(g, data):
    """The bound of a search node whose covered set is a union of disjoint
    cubes: the forced vertices (uncovered, in no cube that still fits) and
    the vertices the witness walk keeps are no more than the parts of the
    fewest-parts cover of the uncovered vertices, and no cube that still
    fits holds two of them. A limit cuts the walk to its first limit + 1
    vertices."""
    nv = g.vertex_count
    levels = enumerate_cubes(g)
    covered = 0
    for _, mask in data.draw(st.lists(st.sampled_from(sum(levels, [])), max_size=6)) if nv else []:
        if not mask & covered:
            covered |= mask
    fitting = [mask for level in levels[1:] for _, mask in level if not mask & covered]
    forced = [
        v for v in range(nv)
        if not covered >> v & 1 and not any(mask >> v & 1 for mask in fitting)
    ]
    table = _CubeTable(levels[:0:-1], (1 << nv) - 1)
    after = covered | sum(1 << v for v in forced)
    kept = _cube_independent(table, after, nv)
    assert not after & sum(1 << v for v in kept)
    rest = without(g, *(g.labels[v] for v in range(nv) if covered >> v & 1))
    assert len(forced) + len(kept) <= first_minimum_cover(rest).part_count
    chosen = set(forced) | set(kept)
    for level in brute_force_cubes(g)[1:]:
        for verts, mask in level:
            if not mask & covered:
                assert len(chosen & set(verts)) <= 1
    limit = data.draw(st.integers(0, nv))
    assert _cube_independent(table, after, limit) == kept[: limit + 1]


@settings(max_examples=100, deadline=None)
@given(small_graphs(), st.data())
def test_the_node_bound_is_valid_on_small_graphs(g, data):
    check_node_bound(g, data)


@settings(max_examples=100, deadline=None)
@given(family_subgraphs(), st.data())
def test_the_node_bound_is_valid_on_family_subgraphs(g, data):
    check_node_bound(g, data)


def test_a_tight_witness_stops_the_search_at_its_first_optimal_cover():
    # the path 2-0-1-3: the first cube through 0 is the edge 01, which
    # strands 2 and 3 (three parts); the second, 02, leads to the optimum
    # 02, 13, which the witness {2, 3} proves. The search stops there, at
    # node 4; told nothing it tries the two single-vertex branches too.
    # So a tight witness does not bound the nodes by part count + 1: that
    # holds only when the first descent is optimal, as on the ladders.
    g = custom_graph(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d")])
    stats = {}
    factor = exact_min_factor(g, stats=stats)
    assert [p.vertices for p in factor.parts] == [(0, 2), (1, 3)]
    assert cube_independent_set(g) == (2, 3)
    assert stats == {"nodes": 4, "bound_prunes": 0, "memo_hits": 0, "lower_bound": 2}
    untold = dict(nodes=0, bound_prunes=0, memo_hits=0)
    _first_min_cover(_CubeTable(enumerate_cubes(g)[1:2], 0b1111), untold)
    assert untold["nodes"] == 6


def test_check_witness_rejects_ids_outside_the_graph():
    with pytest.raises(ValueError):
        check_witness(build_graph("gamma", 2), [0, 3])
    with pytest.raises(ValueError):
        check_witness(build_graph("gamma", 2), [-1])


@pytest.mark.parametrize("family", ["gamma", "omega"])
def test_the_witness_has_padovan_vertices_up_to_order_11(family):
    for n in range(12):
        g = build_graph(family, n)
        witness = cube_independent_set(g)
        assert len(witness) == padovan(n + 1)
        assert check_witness(g, witness) == []


def hypercube_graph(k):
    """Q_k on the k-bit strings, adjacent when they differ in one bit."""
    labels = [format(i, f"0{k}b") if k else "" for i in range(2**k)]
    edges = [(labels[i], labels[i ^ 1 << b]) for i in range(2**k) for b in range(k) if i >> b & 1]
    return custom_graph(labels, edges)


@settings(max_examples=100, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_is_induced_cube_matches_an_isomorphism_check_on_small_graphs(g, rng):
    for k in range(4):
        cube = hypercube_graph(k)
        for subset in itertools.combinations(range(g.vertex_count), 2**k):
            edges = [
                (g.labels[u], g.labels[v])
                for u, v in itertools.combinations(subset, 2) if g.adj[u] >> v & 1
            ]
            induced = custom_graph([g.labels[v] for v in subset], edges)
            expected = find_isomorphism(induced, cube) is not None
            assert _is_induced_cube(g, subset, k) is expected
            assert not _is_induced_cube(g, subset, k - 1)
            assert not _is_induced_cube(g, subset, k + 1)
            shuffled = list(subset)
            rng.shuffle(shuffled)
            assert _is_induced_cube(g, tuple(shuffled), k) is expected
            if k:
                assert not _is_induced_cube(g, subset[:-1] + subset[:1], k)


def circulant(order, steps):
    labels = [f"{i:02d}" for i in range(order)]
    return custom_graph(labels, [(labels[i], labels[(i + s) % order]) for i in range(order) for s in steps])


def pairs(labels):
    return list(itertools.combinations(labels, 2))


def shuffled_hypercube(k, seed):
    """Q_k with its vertex ids, which follow the sorted labels, in an order
    other than the coordinates'."""
    names = [f"{i:02d}" for i in range(2**k)]
    random.Random(seed).shuffle(names)
    return custom_graph(names, [(names[i], names[i ^ 1 << b]) for i in range(2**k) for b in range(k) if i >> b & 1])


@pytest.mark.parametrize(
    "g, k, cube",
    [
        pytest.param(circulant(8, (1, 4)), 3, False, id="wagner"),
        pytest.param(custom_graph(list("abcdefgh"), [*pairs("abcd"), *pairs("efgh")]), 3, False, id="2K4"),
        pytest.param(circulant(16, (1, 3)), 4, False, id="C16(1,3)"),
        pytest.param(circulant(16, (1, 5)), 4, False, id="C16(1,5)"),
        pytest.param(shuffled_hypercube(3, 1), 3, True, id="Q3"),
        pytest.param(shuffled_hypercube(4, 2), 4, True, id="Q4"),
        # Q4 with its edges 1-3 and 2-6 swapped for 1-2 and 3-6: from root
        # 15 (ids reversed) the coordinates are distinct, so only the check
        # that every induced edge flips one bit rejects it
        pytest.param(
            graph_on(16, [*(e for e in REJECTING_GRAPHS["Q_4"].edges() if e not in ((1, 3), (2, 6))),
                          (1, 2), (3, 6)]),
            4, False, id="Q4 with two edges swapped",
        ),
        # Q4 with 9 and 6 rewired as twins of 3 and 12 (9 takes 3's
        # neighbours, 6 takes 12's): bipartite, and from root 0 or 15 every
        # coordinate's weight is its depth, but 3 and 9 get one coordinate,
        # as do 12 and 6, so only the distinct-coordinates check rejects it
        pytest.param(
            graph_on(16, [*(e for e in REJECTING_GRAPHS["Q_4"].edges() if not {6, 9} & set(e)),
                          *((9, v) for v in (1, 2, 7, 11)), *((6, v) for v in (4, 8, 13, 14))]),
            4, False, id="Q4 with two twins",
        ),
    ],
)
def test_a_regular_graph_is_a_cube_only_when_its_coordinates_say_so(g, k, cube):
    # every vertex has degree k, so the degree check passes them all and
    # only the coordinate checks tell the non-cubes apart
    assert all(row.bit_count() == k for row in g.adj)
    assert (find_isomorphism(g, hypercube_graph(k)) is not None) is cube
    everything = tuple(range(g.vertex_count))
    assert _is_induced_cube(g, everything, k) is cube
    assert _is_induced_cube(g, everything[::-1], k) is cube
    outcome = verify_factor(g, CubeFactor((InducedCube(k, everything),)))
    if cube:
        assert outcome == FactorProfile((0,) * k + (1,))
    else:
        assert outcome == FactorViolation("not-a-cube", f"part 0 does not induce a {k}-cube", 0)


@st.composite
def regular_bipartite_graphs(draw):
    """4-regular bipartite graphs on 16 vertices, that is, unions of 4
    perfect matchings between two halves of 8, with ids shuffled: Q_4's
    edges from its even to its odd half after drawn switches, each trading
    edges a-b and c-d for a-d and c-b when both are new. A switch keeps
    every degree, and switches reach every such graph (Ryser's interchange
    theorem); with no switch the draw is Q_4 itself."""
    edges = [(u, u ^ 1 << d) for u in range(16) if u.bit_count() % 2 == 0 for d in range(4)]
    for i, j in draw(st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31)), max_size=12)):
        (a, b), (c, d) = edges[i], edges[j]
        if (a, d) not in edges and (c, b) not in edges:
            edges[i], edges[j] = (a, d), (c, b)
    names = draw(st.permutations([f"v{i:02d}" for i in range(16)]))
    return custom_graph(names, [(names[a], names[b]) for a, b in edges])


@settings(max_examples=60, deadline=None)
@given(regular_bipartite_graphs())
def test_is_induced_cube_matches_an_isomorphism_check_on_4_regular_bipartite_graphs(g):
    # k = 4, past the small graphs' 3. Every degree is 4 and no level holds
    # an edge, so only the distinct-coordinates and depth checks decide
    assert all(row.bit_count() == 4 for row in g.adj)
    expected = find_isomorphism(g, hypercube_graph(4)) is not None
    everything = tuple(range(16))
    assert _is_induced_cube(g, everything, 4) is expected
    assert _is_induced_cube(g, everything[::-1], 4) is expected


# Cube polynomial of Fibonacci cubes (Klavzar & Mollard, "Cube polynomial
# of Fibonacci and Lucas cubes", 2012): gamma_n has sum_i C(i,k) C(n-i+1,i)
# induced k-cubes, (2**(n+2) - (-1)**n) / 3 in all.
@pytest.mark.parametrize("n", range(15))
def test_gamma_cube_counts_match_the_cube_polynomial(n):
    g = build_graph("gamma", n)
    levels = enumerate_cubes(g)
    counts = [len(level) for level in levels]
    assert counts == [
        sum(comb(i, k) * comb(n - i + 1, i) for i in range(n + 1)) for k in range(len(levels))
    ]
    assert sum(counts) == (2 ** (n + 2) - (-1) ** n) // 3


@pytest.mark.parametrize("n", range(2, 15))
def test_omega_cube_total_matches_observed_closed_form(n):
    # observed for n=2..16 (15 and 16 in CI), not proven: omega_n has
    # 2**n + (-1)**n induced cubes
    g = build_graph("omega", n)
    levels = enumerate_cubes(g)
    assert sum(len(level) for level in levels) == 2**n + (-1) ** n


# Each cube of dimension >= 2 is formed once, through its canonical split,
# and on the family members every complete image is a cube of the level
# below: 1,754 images at gamma 11 and 2,707 at omega 12. Level 1 is read off
# the rows with no lookup (2,498 and 3,775 counted with it).
@pytest.mark.parametrize("family, n", [("gamma", 11), ("omega", 12)])
def test_enumeration_join_count(family, n):
    g = build_graph(family, n)
    stats = {}
    levels = enumerate_cubes(g, stats=stats)
    assert set(stats) == {"joins"}
    assert stats["joins"] == sum(len(level) for level in levels[2:]) == {"gamma": 1754, "omega": 2707}[family]


def without(g, *labels):
    """The subgraph of g induced by all vertices but ``labels``."""
    keep = [v for v in range(g.vertex_count) if g.labels[v] not in labels]
    edges = [(g.labels[u], g.labels[v]) for u, v in g.edges() if u in keep and v in keep]
    return custom_graph([g.labels[v] for v in keep], edges)


def test_exact_min_factor_reports_search_effort():
    stats = {}
    factor = exact_min_factor(build_graph("omega", 6), stats=stats)
    assert factor == exact_min_factor(build_graph("omega", 6))
    assert set(stats) == {"nodes", "bound_prunes", "memo_hits", "lower_bound"}
    assert stats["lower_bound"] == factor.part_count == 5
    # the witness of this subgraph (three vertices drawn with seed 0) has 7
    # vertices and the optimum 8 parts, so the search must prove optimality;
    # 35 nodes with the witness walk at every node, 138 before it
    stats = {}
    factor = exact_min_factor(without(build_graph("gamma", 6), "000001", "010101", "100000"), stats=stats)
    assert stats["lower_bound"] < factor.part_count
    assert stats["nodes"] <= 35
    assert 0 < stats["bound_prunes"] + stats["memo_hits"] < stats["nodes"]


# Induced subgraphs of the order-7 members whose root witness is one short
# of the optimum, so the search must prove optimality. Search nodes recorded
# with the witness walk at every node and no fractional bound; with the
# fractional bound at every node too the search took 911, 53 and 180, and
# with the root witness and the fractional bound alone, no walk, 5,362,
# 3,750 and 1,413.
@pytest.mark.parametrize(
    "family, deleted, parts, recorded",
    [
        ("gamma", ("0000001", "0000010", "0010000", "0101001", "1001001"), 11, 951),
        ("gamma", ("0000010", "0000100", "0010000", "0100001", "1000101"), 12, 53),
        ("omega", ("000101", "010100", "10001", "10103"), 11, 196),
    ],
)
def test_exact_search_node_count_where_the_witness_is_short(family, deleted, parts, recorded):
    stats = {}
    factor = exact_min_factor(without(build_graph(family, 7), *deleted), stats=stats)
    assert stats["lower_bound"] == parts - 1 == factor.part_count - 1
    assert stats["nodes"] <= recorded
    assert 0 < stats["bound_prunes"] + stats["memo_hits"] < stats["nodes"]


def lucas_cube(n):
    """The Lucas cube: the length-n words with no "11" and not 1 at both
    ends, two words adjacent when they differ in one letter."""
    # w + w[0] ends in the pair of w's last and first letters
    words = [w for w in map("".join, itertools.product("01", repeat=n)) if "11" not in w + w[0]]
    edges = [(a, b) for a, b in itertools.combinations(words, 2) if sum(map(str.__ne__, a, b)) == 1]
    return custom_graph(words, edges)


# On the Lucas cubes no witness is tight at n = 4 and 6..9, so the search
# proves optimality on its own. Search nodes recorded with the witness walk
# at every node and no fractional bound (Lucas 9 took 14,136 with it).
@pytest.mark.parametrize(
    "n, parts, lower, recorded",
    [(4, 3, 2, 10), (5, 5, 5, 5), (6, 6, 5, 35), (7, 8, 7, 219), (8, 11, 10, 94), (9, 13, 12, 14174)],
)
def test_exact_search_on_the_lucas_cubes(n, parts, lower, recorded):
    g = lucas_cube(n)
    stats = {}
    exact = exact_min_factor(g, stats=stats)
    greedy = greedy_layered_factor(g)
    assert exact.part_count == parts <= greedy.part_count
    assert stats["lower_bound"] == lower
    assert stats["nodes"] <= recorded
    assert not isinstance(verify_factor(g, exact), FactorViolation)
    assert not isinstance(verify_factor(g, greedy), FactorViolation)


# Search nodes recorded with the witness as lower bound; node counts are
# deterministic, so a weaker witness or a lost stop shows on any machine.
# Before the witness the search took 1,843 (gamma) and 1,085 (omega).
@pytest.mark.parametrize("family, recorded", [("gamma", 9), ("omega", 9)])
def test_exact_search_node_count_at_order_8(family, recorded):
    stats = {}
    assert exact_min_factor(build_graph(family, 8), stats=stats).part_count == 9
    assert stats["nodes"] <= recorded


def test_greedy_reports_search_effort_with_the_exact_keys():
    stats = {}
    factor = greedy_layered_factor(build_graph("omega", 6), stats=stats)
    assert factor == greedy_layered_factor(build_graph("omega", 6))
    assert set(stats) == {"nodes", "bound_prunes", "memo_hits"}
    # in the subgraph of gamma 6 without 000001, 010101 and 100000 the
    # sweeps bound the 2-cube packing by 4, one more than its maximum 3, so
    # that layer must prove optimality: 14 nodes, 17 before the bound and 16
    # while the empty 4-cube and 3-cube layers took one node each
    stats = {}
    greedy_layered_factor(without(build_graph("gamma", 6), "000001", "010101", "100000"), stats=stats)
    assert stats["nodes"] <= 14
    assert 0 < stats["bound_prunes"] + stats["memo_hits"] < stats["nodes"]
    # no layer to search: the keys are still there, at zero
    stats = {}
    greedy_layered_factor(build_graph("gamma", 0), stats=stats)
    assert stats == {"nodes": 0, "bound_prunes": 0, "memo_hits": 0}


# Greedy search nodes summed over the searched layers, recorded with each
# layer told the sweep bound of _packing_bound, which meets the packing on
# every layer of these members: the search stops at its first packing,
# within the parts plus one node per searched layer. A layer with no fitting
# cube is not searched; ``before`` is the count recorded while such a layer
# took one node. Before the bound, the core with the witness walk at
# every node took 198, 432 and 1,389 nodes at gamma 11, omega 12 and gamma
# 12; the core alone 198, 444 and 1,409; the per-dimension packing search
# the core replaced 5,629 (gamma 11) and 59,573 (omega 12).
GREEDY_NODES = {
    ("gamma", 11): 24,
    ("omega", 12): 34,
    ("gamma", 12): 31,
    ("gamma", 13): 42,
    ("gamma", 14): 53,
    ("gamma", 15): 69,
    ("gamma", 16): 92,
    ("omega", 13): 42,
    ("omega", 14): 55,
    ("omega", 15): 72,
    ("omega", 16): 93,
}


@pytest.mark.parametrize(
    "family, n, before",
    [
        ("gamma", 11, 27),
        ("omega", 12, 36),
        ("gamma", 12, 35),
        ("gamma", 13, 46),
        ("gamma", 14, 57),
        ("gamma", 15, 74),
        ("gamma", 16, 97),
        ("omega", 13, 45),
        ("omega", 14, 57),
        ("omega", 15, 75),
        ("omega", 16, 96),
    ],
)
def test_greedy_search_node_count(family, n, before):
    stats = {}
    greedy_layered_factor(build_graph(family, n), stats=stats)
    assert stats["nodes"] <= GREEDY_NODES[family, n] < before


@pytest.fixture
def built_tables(monkeypatch):
    """Every _CubeTable the solvers build from now on, in order."""
    tables = []

    class Recorded(factors._CubeTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(factors, "_CubeTable", Recorded)
    return tables


@pytest.mark.parametrize("family, n", [("gamma", 11), ("omega", 12)])
def test_only_a_witness_walk_builds_the_walk_data(family, n, built_tables):
    # greedy's layers stop on their first descent, which never walks, so no
    # layer's table builds its walk data; exact search builds one table and
    # walks at its root
    tables = built_tables
    g = build_graph(family, n)
    greedy_layered_factor(g)
    assert tables and not any("walk" in vars(table) for table in tables)
    tables.clear()
    exact_min_factor(g)
    assert ["walk" in vars(table) for table in tables] == [True]


@pytest.mark.parametrize(
    "family, n, deleted",
    [("gamma", 11, ()), ("omega", 12, ()), ("gamma", 6, ("000001", "010101", "100000"))],
    ids=["gamma 11", "omega 12", "gamma 6 less three"],
)
def test_greedy_builds_a_table_only_for_a_layer_with_a_fitting_cube(family, n, deleted, built_tables):
    # a layer that no cube fits is not searched: it builds no table, so
    # each table greedy builds holds its layer's one list of cubes
    g = build_graph(family, n)
    greedy_layered_factor(without(g, *deleted) if deleted else g)
    assert built_tables and all(len(table.levels) == 1 for table in built_tables)


# sha256 of factor_to_json for greedy past 64 vertices, where the solvers
# once stopped unless told a higher cap: orders 11 and 12 recorded from the
# per-dimension packing search that preceded the shared core, orders 13 to
# 15 from the core before the packing bound (gamma 14 then took 30,930
# nodes, omega 15 70,300). The factors must stay byte-identical.
@pytest.mark.parametrize(
    "family, n, digest",
    [
        ("gamma", 11, "b96522bed71e0fd538bc9c2dc603186abfadc5a933a2c8c5d4044fd681607a26"),
        ("omega", 12, "770cde4715c5e8f368c07a21bfbcf0a2589815396c51251228b62fc9805208a6"),
        ("gamma", 12, "cd81d7380517990924925e19d8a2966819de09d5792c06a44e666aa74367f85c"),
        ("gamma", 13, "2a766f269ea3e2a644623f02c06a1577051116aa1e9817bca220fa6cdf546366"),
        ("gamma", 14, "e7456ddeb1931101977494b8d7cd34097ce7a3b57efe24526e1164fc5ac582a5"),
        ("omega", 15, "3355bcd78064b946a5e74dd8978e02adf032ac8233bcc548999c2a2009a772cb"),
    ],
)
def test_greedy_factor_is_byte_identical_beyond_the_cap(family, n, digest):
    g = build_graph(family, n)
    text = factor_to_json(g, greedy_layered_factor(g))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# Certified from the benchmark's probe ceiling n=12 up to the construction
# cap: the witness is tight, so the search stops at its first cover, within
# one node per part plus the root; the ceilings are the nodes recorded.
# The digests (sha256 of factor_to_json) were recorded with the former
# 64-vertex cap raised to the vertex count, and the factors must stay
# byte-identical. On these members they equal the greedy factors.
EXACT_RECORDS = [
    ("gamma", 12, 28, "cd81d7380517990924925e19d8a2966819de09d5792c06a44e666aa74367f85c"),
    ("gamma", 13, 38, "2a766f269ea3e2a644623f02c06a1577051116aa1e9817bca220fa6cdf546366"),
    ("gamma", 14, 49, "e7456ddeb1931101977494b8d7cd34097ce7a3b57efe24526e1164fc5ac582a5"),
    ("gamma", 15, 65, "c576e69f11af3a02b3024aeafbc190d3be671664c74b9889ce12c38ac6aa6a51"),
    ("gamma", 16, 87, "1e68b624d41a96020018aa20a9d65755f857001093a2ca9dc95f3c01a4e98de3"),
    ("omega", 12, 29, "770cde4715c5e8f368c07a21bfbcf0a2589815396c51251228b62fc9805208a6"),
    ("omega", 13, 37, "6283d84de0ddab612a226b143bae4eafac62664e214d8ab64d0e4c179c7ab243"),
    ("omega", 14, 49, "4e00938a72381e74527b4fa70fa8beec0fd8531f78d3e098620d1446977ed7d6"),
    ("omega", 15, 66, "3355bcd78064b946a5e74dd8978e02adf032ac8233bcc548999c2a2009a772cb"),
    ("omega", 16, 86, "f32d56a85bf1b59b366f0c561b4b8689d1083b4d2757066e56e4f92e65626e4b"),
]


@pytest.mark.parametrize(
    "family, n, nodes, digest", EXACT_RECORDS, ids=[f"{f}-{n}" for f, n, _, _ in EXACT_RECORDS]
)
def test_exact_min_factor_certifies_order_12(family, n, nodes, digest):
    g = build_graph(family, n)
    stats = {}
    factor = exact_min_factor(g, stats=stats)
    assert factor.part_count == stats["lower_bound"] == padovan(n + 1)
    assert stats["nodes"] <= nodes
    assert verify_factor(g, factor).counts == qpoly_rec(family, n).coeffs
    assert hashlib.sha256(factor_to_json(g, factor).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "masks, groups",
    [
        ([], 0),
        ([0b0011], 1),
        ([0b0011, 0b1100, 0b110000], 3),  # disjoint: one group each
        ([0b0011, 0b0101, 0b1001, 0b10001], 1),  # all through vertex 0
        # 0b0110 meets the first group's common part 0b0011 & 0b0101 = 0b0001
        # nowhere, though it meets both cubes: it waits for the next sweep
        ([0b0011, 0b0101, 0b0110], 2),
    ],
)
def test_packing_bound_counts_the_sweep_groups(masks, groups):
    assert _packing_bound(masks) == groups


@settings(max_examples=100, deadline=None)
@given(family_subgraphs(orders=(6, 7), most=None))
def test_the_packing_bound_holds_and_only_cuts_greedy_on_member_subgraphs(g):
    # each layer run through the core told nothing: its packing is at most
    # the sweep bound, and greedy, told the bound, returns the same factor
    # in no more nodes
    nv = g.vertex_count
    remaining = (1 << nv) - 1
    untold = dict(nodes=0, bound_prunes=0, memo_hits=0)
    parts = []
    for layer in enumerate_cubes(g)[:0:-1]:
        fitting = [c for c in layer if not c[1] & ~remaining]
        packing = _first_min_cover(_CubeTable([fitting], remaining), untold, 0)
        assert len(packing) <= _packing_bound([mask for _, mask in fitting])
        for vertices, mask in packing:
            parts.append(InducedCube(len(vertices).bit_length() - 1, vertices))
            remaining &= ~mask
    parts.extend(InducedCube(0, (v,)) for v in range(nv) if remaining >> v & 1)
    stats = {}
    assert greedy_layered_factor(g, stats=stats) == CubeFactor(tuple(parts))
    assert stats["nodes"] <= untold["nodes"]


def test_exact_min_factor_respects_the_cap():
    # a cap binds only when the caller passes one
    g = build_graph("gamma", 10)
    for solver in (exact_min_factor, greedy_layered_factor):
        with pytest.raises(ValueError, match="^graph has 144 vertices, above the cap 143$"):
            solver(g, cap=143)
        assert solver(g, cap=144) == solver(g)


def test_a_search_deeper_than_the_recursion_limit_raises_value_error():
    # the search recurses once per part on a branch, and a path's first
    # descent takes its edges in order: 1,050 parts here, past Python's
    # default limit of 1,000 frames
    labels = [str(v) for v in range(2100)]
    g = custom_graph(labels, list(zip(labels, labels[1:])))
    for solver in (exact_min_factor, greedy_layered_factor):
        with pytest.raises(ValueError, match="^the search is deeper than Python's recursion limit of "):
            solver(g)


def test_greedy_layered_small_cases():
    assert greedy_layered_factor(build_graph("gamma", 4)).profile().counts == (0, 2, 1)
    assert greedy_layered_factor(build_graph("omega", 5)).profile().counts == (1, 1, 2)
    single = greedy_layered_factor(build_graph("gamma", 0))
    assert single.parts == (InducedCube(0, (0,)),)


def test_structural_factor_small_cases():
    g3 = build_graph("gamma", 3)
    factor = structural_factor("gamma", 3)
    parts = {tuple(g3.labels[v] for v in p.vertices) for p in factor.parts}
    assert parts == {("000", "001", "100", "101"), ("010",)}

    o5 = build_graph("omega", 5)
    factor5 = structural_factor("omega", 5, o5)
    by_dim = sorted((p.dimension, tuple(o5.labels[v] for v in p.vertices)) for p in factor5.parts)
    assert by_dim == [
        (0, ("0102",)),
        (1, ("0100", "0101")),
        (2, ("000", "001", "100", "101")),
        (2, ("002", "003", "102", "103")),
    ]

    assert structural_factor("gamma", 0).parts == (InducedCube(0, (0,)),)


def test_structural_factor_rejects_mismatched_graph():
    with pytest.raises(ValueError):
        structural_factor("gamma", 3, build_graph("gamma", 4))


# the construction's rule on labels, the reference for the factor built on
# ids: explicit base parts, the parts two orders down lifted across the
# "00"/"10" prefix pair and the parts three orders down embedded under "010"
LABEL_BASE_PARTS = {
    "gamma": [[("",)], [("0", "1")], [("00", "01"), ("10",)]],
    "omega": [
        [("0",)],
        [("0", "1")],
        [("0", "1"), ("2",)],
        [("0", "1"), ("2", "3")],
        [("00", "01", "100", "101"), ("02", "03"), ("102",)],
    ],
}


def label_parts(family, n):
    bases = LABEL_BASE_PARTS[family]
    if n < len(bases):
        return bases[n]
    lifted = [tuple(pre + lab for pre in ("00", "10") for lab in part) for part in label_parts(family, n - 2)]
    embedded = [tuple("010" + lab for lab in part) for part in label_parts(family, n - 3)]
    return lifted + embedded


@pytest.mark.parametrize("family", ["gamma", "omega"])
def test_structural_factor_follows_the_label_rule_up_to_the_cap(family):
    for n in range(17):
        g = build_graph(family, n)
        cubes = [
            InducedCube(len(part).bit_length() - 1, tuple(sorted(map(g.index_of, part))))
            for part in label_parts(family, n)
        ]
        expected = tuple(sorted(cubes, key=lambda c: (-c.dimension, c.vertices)))
        assert structural_factor(family, n, g).parts == expected, (family, n)


def test_structural_factor_builds_no_member(monkeypatch):
    expected = {(family, n): structural_factor(family, n) for family in ("gamma", "omega") for n in range(17)}

    def no_member(fam, n):
        raise AssertionError(f"built {fam.value} {n}")

    monkeypatch.setattr(graphs, "_member", no_member)
    for (family, n), factor in expected.items():
        assert structural_factor(family, n) == factor
    for family in ("gamma", "omega"):
        with pytest.raises(ValueError, match=r"^n=17 exceeds the construction cap 16$"):
            structural_factor(family, 17)
        with pytest.raises(ValueError, match=r"^n must be non-negative, got -1$"):
            structural_factor(family, -1)


def test_all_solvers_agree_up_to_8():
    for family in ("gamma", "omega"):
        for n in range(9):
            g = build_graph(family, n)
            poly = qpoly_rec(family, n)
            exact = exact_min_factor(g)
            greedy = greedy_layered_factor(g)
            structural = structural_factor(family, n, g)
            assert exact.part_count == padovan(n + 1), (family, n)
            assert exact.part_count == greedy.part_count == structural.part_count
            assert greedy.profile().counts == poly.coeffs, (family, n)
            assert structural.profile().counts == poly.coeffs, (family, n)
            for factor in (exact, greedy, structural):
                outcome = verify_factor(g, factor)
                assert isinstance(outcome, FactorProfile), (family, n, outcome)
                covered = sum(c * 2**k for k, c in enumerate(outcome.counts))
                assert covered == g.vertex_count


def test_solvers_are_deterministic():
    g = build_graph("gamma", 6)
    assert exact_min_factor(g) == exact_min_factor(g)
    assert greedy_layered_factor(g) == greedy_layered_factor(g)


def single_vertex_mutations(g, factor):
    """Every factor that differs from ``factor`` in one vertex of one part:
    the vertex dropped, or replaced by any other vertex of the graph (the
    part's vertices kept sorted, so only the cube, disjointness and
    coverage checks can catch it)."""
    for i, part in enumerate(factor.parts):
        for j, v in enumerate(part.vertices):
            rest = part.vertices[:j] + part.vertices[j + 1:]
            options = [rest] + [tuple(sorted(rest + (w,))) for w in range(g.vertex_count) if w != v]
            for vertices in options:
                mutated = factor.parts[:i] + (InducedCube(part.dimension, vertices),) + factor.parts[i + 1:]
                yield CubeFactor(mutated)


@pytest.mark.parametrize("family", ["gamma", "omega"])
@pytest.mark.parametrize("n", range(6))
def test_verify_factor_rejects_every_single_vertex_mutation(family, n):
    g = build_graph(family, n)
    for factor in (exact_min_factor(g), greedy_layered_factor(g), structural_factor(family, n, g)):
        assert isinstance(verify_factor(g, factor), FactorProfile)
        mutations = list(single_vertex_mutations(g, factor))
        assert len(mutations) == g.vertex_count**2
        for mutated in mutations:
            assert isinstance(verify_factor(g, mutated), FactorViolation), mutated


def test_verify_factor_coverage_violation():
    g = build_graph("gamma", 2)
    missing_one = CubeFactor((InducedCube(1, ids_of(g, ["00", "01"])),))
    outcome = verify_factor(g, missing_one)
    assert isinstance(outcome, FactorViolation)
    assert outcome.kind == "coverage"


def test_verify_factor_disjointness_violation():
    g = build_graph("gamma", 2)
    overlapping = CubeFactor((
        InducedCube(1, ids_of(g, ["00", "01"])),
        InducedCube(1, ids_of(g, ["00", "10"])),
    ))
    outcome = verify_factor(g, overlapping)
    assert isinstance(outcome, FactorViolation)
    assert outcome.kind == "disjointness"


def test_verify_factor_rejects_non_cubes():
    g3 = build_graph("gamma", 3)
    star = CubeFactor((
        InducedCube(2, ids_of(g3, ["000", "001", "010", "100"])),
        InducedCube(0, ids_of(g3, ["101"])),
    ))
    outcome = verify_factor(g3, star)
    assert isinstance(outcome, FactorViolation)
    assert outcome.kind == "not-a-cube"

    wrong_dim = CubeFactor((InducedCube(1, ids_of(g3, ["000", "001", "100", "101"])),))
    outcome = verify_factor(g3, wrong_dim)
    assert isinstance(outcome, FactorViolation)
    assert outcome.kind == "not-a-cube"


@pytest.mark.parametrize("k", [-1, 10**9])
def test_verify_factor_reports_impossible_dimensions_as_not_a_cube(k):
    g = build_graph("gamma", 2)
    factor = factor_from_json(g, json.dumps([{"k": k, "vertices": ["00"]}]))
    outcome = verify_factor(g, factor)
    assert isinstance(outcome, FactorViolation)
    assert outcome.kind == "not-a-cube"


def test_verify_factor_rejects_foreign_vertices():
    g = build_graph("gamma", 2)
    outcome = verify_factor(g, CubeFactor((InducedCube(0, (7,)),)))
    assert isinstance(outcome, FactorViolation)
    assert outcome.kind == "bad-vertex"


def test_verify_factor_rejects_unsorted_vertices():
    g = build_graph("gamma", 2)
    edge = tuple(reversed(ids_of(g, ["00", "01"])))
    outcome = verify_factor(g, CubeFactor((InducedCube(1, edge), InducedCube(0, ids_of(g, ["10"])))))
    assert outcome == FactorViolation("bad-vertex", "part 0 vertices are not sorted", 0)


def test_factor_json_round_trip():
    g = build_graph("omega", 5)
    factor = structural_factor("omega", 5, g)
    text = factor_to_json(g, factor)
    payload = json.loads(text)
    assert payload["family"] == "omega" and payload["n"] == 5
    assert payload["profile"] == ["1", "1", "2"]
    assert factor_from_json(g, text) == factor
    # a bare parts list is accepted too
    assert factor_from_json(g, json.dumps(payload["parts"])) == factor


def test_factor_json_rejects_a_factor_written_for_another_graph():
    omega, gamma = build_graph("omega", 1), build_graph("gamma", 1)
    assert omega.labels == gamma.labels  # so only the family can tell them apart
    text = factor_to_json(omega, structural_factor("omega", 1, omega))
    with pytest.raises(ValueError, match="^malformed.*omega n=1.*gamma n=1"):
        factor_from_json(gamma, text)
    # the bare list of parts carries no graph, so it is still accepted
    assert factor_from_json(gamma, json.dumps(json.loads(text)["parts"])).part_count == 1


@pytest.mark.parametrize("n, bad", [(1, "true"), (2, "2.0")])
def test_factor_json_rejects_an_order_that_is_not_an_integer(n, bad):
    g = build_graph("gamma", n)
    text = factor_to_json(g, structural_factor("gamma", n, g)).replace(f'"n":{n}', f'"n":{bad}')
    with pytest.raises(ValueError, match="^malformed"):
        factor_from_json(g, text)


def test_factor_json_rejects_unknown_labels():
    g = build_graph("gamma", 2)
    with pytest.raises(ValueError):
        factor_from_json(g, '[{"k": 0, "vertices": ["banana"]}]')


@pytest.mark.parametrize(
    "text",
    [
        "5",
        "null",
        '{"parts":5}',
        '[{"k":1,"vertices":7}]',
        '[{"k":1,"vertices":"00"}]',
        '[{"k":true,"vertices":["00","01"]}]',
        '[{"k":false,"vertices":["00"]}]',
    ],
)
def test_factor_json_rejects_malformed_shapes(text):
    with pytest.raises(ValueError, match="malformed"):
        factor_from_json(build_graph("gamma", 2), text)


@pytest.mark.parametrize(
    "parts",
    [
        (InducedCube(1, (0, 1)), InducedCube(-1, (2,))),
        (InducedCube(-1, (2,)),),
        (InducedCube(10**9, (0,)),),
        (InducedCube(1, (0, 1, 2)),),
    ],
)
def test_profile_rejects_parts_whose_dimension_does_not_fit(parts):
    factor = CubeFactor(parts)
    with pytest.raises(ValueError, match="dimension"):
        factor.profile()
    with pytest.raises(ValueError, match="dimension"):
        factor_to_json(build_graph("gamma", 2), factor)

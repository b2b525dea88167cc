"""The members' coordinates and the subcube enumerator they feed.

``graphs.member_coordinates`` builds a member's hypercube coordinates from
the construction and ``graphs.coordinate`` reads one off a label, the
second route; ``factors.interval_cubes`` lists the subcubes inside the
coordinate set, and ``factors._subcubes`` hands a member's subcubes to the
solvers only where its adjacency rows are exactly the level-1 pairs, the
pairs at Hamming distance 1. Greedy reads its layers through
``factors._subcube_layers`` instead, which lists the k-subcubes inside
the remaining vertices off coordinate bitmaps, behind a gate with the
same verdict that reads each adjacency bit once and counts them.
These tests hold the subcubes against ``enumerate_cubes`` on drawn
coordinate sets and the layer listing against its filtered levels on
drawn remaining sets and call orders, check that any other graph keeps
the extension route, rows off the Hamming rule included, check both
coordinate routes against the built members' edges, and check that
``_subcubes`` reads no label.
"""

from __future__ import annotations

import dataclasses
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubefactor import factors
from cubefactor.factors import (
    _inside,
    _subcube_layers,
    _subcubes,
    cube_independent_set,
    enumerate_cubes,
    exact_min_factor,
    greedy_layered_factor,
    interval_cubes,
)
from cubefactor.graphs import DEFAULT_MAX_N, build_graph, coordinate, custom_graph, member_coordinates


def hamming_graph(d, coords, in_order):
    """The induced subgraph of Q_d on ``coords``. Each label is a
    coordinate's d bits, written highest first when ``in_order``, so that
    vertex ids, which follow the sorted labels, are in coordinate order,
    and lowest first otherwise, so that they are not."""
    labels = {c: (f"{c:0{d}b}" if in_order else f"{c:0{d}b}"[::-1]) or "-" for c in coords}
    edges = [(labels[a], labels[b]) for a in coords for b in coords if a < b and (a ^ b).bit_count() == 1]
    g = custom_graph(list(labels.values()), edges)
    by_label = {lab: c for c, lab in labels.items()}
    return g, tuple(by_label[lab] for lab in g.labels)


@st.composite
def coordinate_sets(draw):
    d = draw(st.integers(0, 6))
    return d, sorted(draw(st.sets(st.integers(0, (1 << d) - 1)))), draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(coordinate_sets())
def test_subcubes_equal_the_extension_route_on_drawn_coordinate_sets(drawn):
    g, coords = hamming_graph(*drawn)
    assert _subcubes(g) is None  # a custom graph keeps the extension route
    levels = interval_cubes(coords)
    assert len(levels) == max(len(coords).bit_length() - 1, 0) + 1
    assert levels == enumerate_cubes(g)


@cache
def member_levels(family, n):
    g = build_graph(family, n)
    return g, enumerate_cubes(g)


@st.composite
def remaining_sets(draw):
    # a member up to order 10 and a vertex set: every vertex but a few,
    # which keeps the upper levels filled, or any set at all
    family, n = draw(st.sampled_from(("gamma", "omega"))), draw(st.integers(0, 10))
    every = (1 << member_levels(family, n)[0].vertex_count) - 1
    deleted = st.sets(st.integers(0, every.bit_length() - 1)).map(lambda vs: sum(1 << v for v in vs))
    return family, n, draw(st.one_of(deleted.map(lambda d: every & ~d), st.integers(0, every)))


@settings(max_examples=200, deadline=None)
@given(remaining_sets())
def test_layer_listing_equals_the_filtered_extension_levels(drawn):
    family, n, remaining = drawn
    g, levels = member_levels(family, n)
    fitting = _subcube_layers(g)
    assert fitting is not None
    for k in range(len(levels)):
        assert fitting(k, remaining) == _inside(levels, k, remaining), k


@st.composite
def call_sequences(draw):
    # a member up to order 10 and a run of (k, remaining) calls, each
    # remaining set the last one with a drawn vertex set toggled, so that
    # it grows and shrinks, not only shrinks as under greedy
    family, n = draw(st.sampled_from(("gamma", "omega"))), draw(st.integers(0, 10))
    g, levels = member_levels(family, n)
    vertices = st.sets(st.integers(0, g.vertex_count - 1)).map(lambda vs: sum(1 << v for v in vs))
    calls = st.tuples(st.integers(0, len(levels) - 1), vertices)
    return family, n, draw(st.lists(calls, min_size=1, max_size=8))


@settings(max_examples=200, deadline=None)
@given(call_sequences())
def test_layer_listing_holds_in_any_call_order(drawn):
    # ``fitting`` carries the last remaining set's coordinates from call
    # to call; each call must list the same cubes as a fresh filter
    family, n, calls = drawn
    g, levels = member_levels(family, n)
    fitting = _subcube_layers(g)
    remaining = (1 << g.vertex_count) - 1
    for k, toggled_vertices in calls:
        remaining ^= toggled_vertices
        assert fitting(k, remaining) == _inside(levels, k, remaining), (k, remaining)


@pytest.mark.parametrize("family, n", [("gamma", 11), ("omega", 12)])
def test_greedy_builds_the_full_coordinate_bitmap_once(family, n, monkeypatch):
    # each layer after the first toggles only the coordinates of the
    # vertices the layers above packed, so the bitmaps past the first hold
    # at most every vertex once between them
    built = []
    clean = factors._bitmap

    def counted(positions, size):
        positions = list(positions)
        built.append(len(positions))
        return clean(positions, size)

    monkeypatch.setattr(factors, "_bitmap", counted)
    g = build_graph(family, n)
    greedy_layered_factor(g)
    assert built[0] == g.vertex_count and len(built) > 2
    assert max(built[1:]) < g.vertex_count and sum(built[1:]) <= g.vertex_count


def test_interval_cubes_lists_the_dimensions_its_size_allows():
    levels = interval_cubes((0, 1, 2, 3))
    assert [len(level) for level in levels] == [4, 4, 1]
    assert levels[2] == [((0, 1, 2, 3), 0b1111)]
    for coords in ([0, 0, 1], [-1, 0]):  # repeated, negative
        with pytest.raises(ValueError):
            interval_cubes(coords)


@pytest.mark.parametrize("family", ["gamma", "omega"])
@pytest.mark.parametrize("n", range(DEFAULT_MAX_N + 1))
def test_coordinates_place_exactly_the_edges_at_hamming_distance_1(family, n):
    g = build_graph(family, n)
    coords = [coordinate(family, n, label) for label in g.labels]
    assert len(set(coords)) == g.vertex_count
    assert max(coords) < 1 << n
    index = {c: v for v, c in enumerate(coords)}
    for v, c in enumerate(coords):
        near = [index[c ^ 1 << i] for i in range(n) if c ^ 1 << i in index]
        assert sum(1 << u for u in near) == g.adj[v]
    assert _subcubes(g) == interval_cubes(tuple(coords))
    assert member_coordinates(family, n) == coords


@pytest.mark.parametrize("family, n", [("gamma", -1), ("omega", -1), ("custom", 3)])
def test_member_coordinates_reject_a_negative_order_and_an_unknown_family(family, n):
    with pytest.raises(ValueError):
        member_coordinates(family, n)


@pytest.mark.parametrize(
    "family, n, label",
    [
        ("gamma", 2, "0"),  # too short
        ("gamma", 2, "02"),  # not binary
        ("gamma", 3, "011"),  # two adjacent 1s
        ("omega", 4, "4"),  # a base symbol above the order
        ("omega", 2, "3"),
        ("omega", 5, "11"),  # neither "0" nor "10" in front
        ("omega", 5, "0"),  # stripped before the order reaches 3
        ("omega", 0, ""),
        ("custom", 1, "0"),
    ],
)
def test_coordinate_rejects_a_label_the_rule_cannot_read(family, n, label):
    with pytest.raises(ValueError):
        coordinate(family, n, label)


def toggled(g, u, v):
    adj = list(g.adj)
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u
    return dataclasses.replace(g, adj=tuple(adj))


def forged_members():
    # members with one edge removed or one added between vertices at
    # Hamming distance 2 (a diagonal of a 4-cycle)
    for family in ("gamma", "omega"):
        for n in (4, 7):
            g = build_graph(family, n)
            u, v = next(g.edges())
            yield pytest.param(toggled(g, u, v), id=f"{family}-{n}-removed")
            w = next(w for w in range(g.vertex_count) if w != u and not g.adj[u] >> w & 1
                     and g.adj[u] & g.adj[w])
            yield pytest.param(toggled(g, u, w), id=f"{family}-{n}-added")


def as_custom(g):
    return custom_graph(list(g.labels), [(g.labels[u], g.labels[v]) for u, v in g.edges()])


@pytest.mark.parametrize("g", forged_members())
def test_a_member_with_other_edges_keeps_the_extension_route(g):
    assert _subcubes(g) is None
    assert _subcube_layers(g) is None
    twin = as_custom(g)  # same ids and edges, family "custom"
    assert exact_min_factor(g) == exact_min_factor(twin)
    assert greedy_layered_factor(g) == greedy_layered_factor(twin)
    assert cube_independent_set(g) == cube_independent_set(twin)


def test_a_member_under_another_family_name_keeps_the_extension_route():
    g = build_graph("gamma", 6)
    assert _subcubes(dataclasses.replace(g, family="omega")) is None
    assert _subcubes(dataclasses.replace(g, family="custom")) is None
    assert _subcube_layers(dataclasses.replace(g, family="omega")) is None


@pytest.mark.parametrize("family, n", [("gamma", 7), ("omega", 8)])
def test_subcubes_read_no_label(family, n):
    # the same ids and rows under other labels: family, n and the rows are
    # all that _subcubes reads
    g = build_graph(family, n)
    relabelled = dataclasses.replace(g, labels=tuple(f"v{v:03d}" for v in range(g.vertex_count)))
    subcubes = _subcubes(g)
    assert subcubes is not None and _subcubes(relabelled) == subcubes
    assert exact_min_factor(relabelled) == exact_min_factor(g)
    assert greedy_layered_factor(relabelled) == greedy_layered_factor(g)


@pytest.mark.parametrize("n", [5, 7, -1, 10**9])
def test_a_member_under_another_order_keeps_the_extension_route(n):
    # another vertex count; an order far above what 21 vertices allow is
    # refused before its coordinates would be built
    assert _subcubes(dataclasses.replace(build_graph("gamma", 6), n=n)) is None
    assert _subcube_layers(dataclasses.replace(build_graph("gamma", 6), n=n)) is None


def test_a_member_with_one_sided_adjacency_keeps_the_extension_route():
    # one adjacency bit cleared on one side only: edges() reads the upper
    # triangle and would still list the edge, the rows do not
    g = build_graph("gamma", 5)
    u, v = next(g.edges())
    adj = list(g.adj)
    adj[v] ^= 1 << u
    assert _subcubes(dataclasses.replace(g, adj=tuple(adj))) is None
    assert _subcube_layers(dataclasses.replace(g, adj=tuple(adj))) is None


def row_faults():
    # members whose rows break the Hamming rule with as many adjacency bits
    # as the member has, so that only the check of each bit sees it; a bit
    # past the vertex count, which the gate must refuse without an
    # IndexError; and one row more than the vertex count
    for family, n in (("gamma", 7), ("omega", 8)):
        g = build_graph(family, n)
        u, v = next(g.edges())
        w = next(w for w in range(g.vertex_count) if w != u and not g.adj[u] >> w & 1
                 and g.adj[u] & g.adj[w])  # at Hamming distance 2 from u
        swapped = toggled(toggled(g, u, v), u, w)  # as many edges
        yield pytest.param(swapped, id=f"{family}-{n}-edge-swapped")
        adj = list(g.adj)
        adj[u] ^= 1 << v | 1 << w  # on u's row only: as many bits
        yield pytest.param(dataclasses.replace(g, adj=tuple(adj)), id=f"{family}-{n}-bit-swapped")
        adj = list(g.adj)
        adj[u] |= 1 << g.vertex_count
        yield pytest.param(dataclasses.replace(g, adj=tuple(adj)), id=f"{family}-{n}-bit-out-of-range")
        adj = list(g.adj)
        adj[u] ^= 1 << v | 1 << u  # a neighbour's bit swapped for u's own
        yield pytest.param(dataclasses.replace(g, adj=tuple(adj)), id=f"{family}-{n}-self-loop")
        yield pytest.param(dataclasses.replace(g, adj=(*g.adj, 0)), id=f"{family}-{n}-extra-row")


def greedy_outcome(g):
    # greedy's factor, or the type of the error it raises: with a bit past
    # the vertex count, enumerate_cubes reads a row that is not there
    try:
        return greedy_layered_factor(g)
    except IndexError as exc:
        return type(exc)


@pytest.mark.parametrize("g", row_faults())
def test_a_member_with_rows_off_the_hamming_rule_keeps_the_extension_route(g):
    assert _subcube_layers(g) is None
    # the same ids and rows, family "custom": custom_graph cannot build
    # these rows, so they are set on the clean member's twin
    twin = dataclasses.replace(as_custom(build_graph(g.family, g.n)), adj=g.adj)
    assert greedy_outcome(g) == greedy_outcome(twin)


@pytest.mark.parametrize("family", ["gamma", "omega"])
@pytest.mark.parametrize("n", range(9))
def test_both_routes_give_the_same_factors_on_the_members(family, n):
    g = build_graph(family, n)
    twin = as_custom(g)
    assert exact_min_factor(g) == exact_min_factor(twin)
    assert greedy_layered_factor(g) == greedy_layered_factor(twin)
    assert cube_independent_set(g) == cube_independent_set(twin)

from __future__ import annotations

import itertools
import re

import pytest

from cubefactor.graphs import (
    DEFAULT_MAX_N,
    build_graph,
    canonical_subgraph,
    custom_graph,
    expected_vertex_count,
    export_graph,
    find_isomorphism,
)
from cubefactor.sequences import fib, lucas


def hamming(a: str, b: str) -> int:
    return sum(x != y for x, y in zip(a, b))


def grid_plus_pendant():
    labels = ["a0", "a1", "a2", "b0", "b1", "b2", "p"]
    edges = [
        ("a0", "a1"), ("a1", "a2"), ("b0", "b1"), ("b1", "b2"),
        ("a0", "b0"), ("a1", "b1"), ("a2", "b2"), ("a2", "p"),
    ]
    return custom_graph(labels, edges)


def test_gamma_small_cases():
    g0 = build_graph("gamma", 0)
    assert g0.labels == ("",)
    assert g0.edge_count == 0
    g2 = build_graph("gamma", 2)
    assert g2.labels == ("00", "01", "10")
    assert sorted((g2.labels[u], g2.labels[v]) for u, v in g2.edges()) == [
        ("00", "01"), ("00", "10"),
    ]


def test_gamma_labels_avoid_consecutive_ones():
    for n in range(9):
        g = build_graph("gamma", n)
        assert all("11" not in lab for lab in g.labels)
        assert len(set(g.labels)) == g.vertex_count


def test_gamma_adjacency_is_exactly_hamming_distance_one():
    for n in range(8):
        g = build_graph("gamma", n)
        for u, v in itertools.combinations(range(g.vertex_count), 2):
            d = hamming(g.labels[u], g.labels[v])
            assert (g.adj[u] >> v & 1) == (d == 1), (n, g.labels[u], g.labels[v])


def label_edges(g):
    return {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges()}


# the whole construction range, and two orders past the cap with max_n
RANGE = range(DEFAULT_MAX_N + 3)


def test_gamma_matches_the_string_reference():
    # labels: the length-n strings without "11"; edges: the pairs found by
    # raising one 0 to 1
    for n in RANGE:
        g = build_graph("gamma", n, max_n=max(n, DEFAULT_MAX_N))
        strings = ["".join(bits) for bits in itertools.product("01", repeat=n)]
        labels = [s for s in strings if "11" not in s]
        present = set(labels)
        edges = {
            frozenset((s, s[:i] + "1" + s[i + 1:]))
            for s in labels
            for i in range(n)
            if s[i] == "0" and s[:i] + "1" + s[i + 1:] in present
        }
        assert g.labels == tuple(labels), n
        assert label_edges(g) == edges, n


def omega_reference(top):
    """Labels and edges of omega members 0..top by the label-space
    recursion: paths up to order 3, then "0" + member n-1 and "10" +
    member n-2, with "10"w matched to "0" + e + w, where e is "" when
    member n-1 is a path base and "0" otherwise."""
    members = [
        ([str(i) for i in range(size)], {frozenset((str(i), str(i + 1))) for i in range(size - 1)})
        for size in range(1, 5)
    ]
    for n in range(4, top + 1):
        (a_labels, a_edges), (b_labels, b_edges) = members[n - 1], members[n - 2]
        e = "" if n - 1 <= 3 else "0"
        members.append((
            sorted(["0" + w for w in a_labels] + ["10" + w for w in b_labels]),
            {frozenset("0" + w for w in pair) for pair in a_edges}
            | {frozenset("10" + w for w in pair) for pair in b_edges}
            | {frozenset(("10" + w, "0" + e + w)) for w in b_labels},
        ))
    return members


def test_omega_matches_the_label_space_recursion():
    for n, (labels, edges) in enumerate(omega_reference(RANGE[-1])):
        g = build_graph("omega", n, max_n=max(n, DEFAULT_MAX_N))
        assert g.labels == tuple(labels), n
        assert label_edges(g) == edges, n


def test_gamma5_free_position_subset_induces_a_3_cube():
    g = build_graph("gamma", 5)
    assert g.vertex_count == 13
    subset = [a + "0" + b + "0" + c for a in "01" for b in "01" for c in "01"]
    assert all(s in g.labels for s in subset)
    edge_total = 0
    for a, b in itertools.combinations(subset, 2):
        is_edge = g.adj[g.index_of(a)] >> g.index_of(b) & 1
        assert is_edge == (hamming(a, b) == 1)
        edge_total += is_edge
    assert edge_total == 12  # 3 * 2**2, the 3-cube edge count


def test_vertex_counts_to_15():
    for n in range(16):
        assert build_graph("gamma", n).vertex_count == fib(n + 2)
        omega = build_graph("omega", n)
        assert omega.vertex_count == expected_vertex_count("omega", n)
        if n >= 2:
            assert omega.vertex_count == lucas(n)


def test_graphs_are_connected():
    for n in range(11):
        assert build_graph("gamma", n).is_connected()
        assert build_graph("omega", n).is_connected()


def test_construction_cap():
    with pytest.raises(ValueError):
        build_graph("gamma", 17)
    with pytest.raises(ValueError):
        build_graph("omega", 17)
    with pytest.raises(ValueError):
        build_graph("gamma", -1)
    assert build_graph("gamma", 4, max_n=4).vertex_count == 8


@pytest.mark.parametrize("family", ["gamma", "omega"])
@pytest.mark.parametrize("n", [-1, -2, -3])
def test_expected_vertex_count_rejects_a_negative_order(family, n):
    with pytest.raises(ValueError, match=f"^n must be non-negative, got {n}$"):
        expected_vertex_count(family, n)


def test_omega_base_cases_are_paths():
    for n, size in ((0, 1), (1, 2), (2, 3), (3, 4)):
        g = build_graph("omega", n)
        assert g.vertex_count == size
        assert g.edge_count == size - 1
        degrees = sorted(g.degree(v) for v in range(size))
        if size >= 2:
            assert degrees == [1, 1] + [2] * (size - 2)


def test_omega4_is_the_grid_plus_pendant_graph():
    iso = find_isomorphism(build_graph("omega", 4), grid_plus_pendant())
    assert iso is not None


def test_omega_edge_counts_follow_the_construction_recurrence():
    # E(n) = E(n-1) + E(n-2) + |V(n-2)|, seeded by the path base cases
    edge_counts = {n: build_graph("omega", n).edge_count for n in range(11)}
    assert edge_counts[3] == 3
    assert edge_counts[4] == 8
    assert edge_counts[5] == 15
    assert edge_counts[6] == 30
    for n in range(4, 11):
        expected = edge_counts[n - 1] + edge_counts[n - 2] + build_graph("omega", n - 2).vertex_count
        assert edge_counts[n] == expected, n
    # drawn members: vertex counts 11, 18, 29 for orders 5, 6, 7
    assert [build_graph("omega", n).vertex_count for n in (5, 6, 7)] == [11, 18, 29]


def test_omega_cross_edges_form_a_perfect_matching():
    for n in range(4, 13):
        g = build_graph("omega", n)
        b_set = set(g.subcopies["second"].vertices)
        for v in b_set:
            cross = [u for u in range(g.vertex_count) if g.adj[v] >> u & 1 and u not in b_set]
            assert len(cross) == 1, (n, g.labels[v])


@pytest.mark.parametrize("family", ["gamma", "omega"])
def test_subcopy_annotations_are_the_labels_with_their_prefix(family):
    # the annotations are read off the sorted labels as id ranges; each must
    # hold exactly the labels that start with its prefix
    for n in range(DEFAULT_MAX_N + 1):
        g = build_graph(family, n)
        for name, sub in g.subcopies.items():
            expected = tuple(i for i, s in enumerate(g.labels) if s.startswith(sub.prefix))
            assert sub.vertices == (expected if sub.prefix else tuple(range(n))), (n, name)


def test_canonical_subgraph_extracts_smaller_members():
    # the prefix-"10" copy inside order 5 is the order-3 member
    sub = canonical_subgraph(build_graph("gamma", 5), "second")
    reference = build_graph("gamma", 3)
    assert sub.vertex_count == 5
    assert find_isomorphism(sub, reference) is not None

    first = canonical_subgraph(build_graph("omega", 4), "first")
    assert first.vertex_count == 4
    assert sorted(first.degree(v) for v in range(4)) == [1, 1, 2, 2]  # a 4-path
    assert first.is_connected()

    assert canonical_subgraph(build_graph("omega", 2), "first").vertex_count == 2


def test_index_of_finds_every_label_and_raises_key_error_on_a_miss():
    for g in (build_graph("gamma", 5), build_graph("omega", 5), build_graph("omega", 0)):
        assert [g.index_of(lab) for lab in g.labels] == list(range(g.vertex_count))
        for missing in ("", "01", "2", "zz", g.labels[-1] + "0"):
            with pytest.raises(KeyError):
                g.index_of(missing)


def test_canonical_subgraph_of_a_member_above_the_default_cap():
    g = build_graph("omega", 18, max_n=18)
    first = canonical_subgraph(g, "first")
    assert (first.family, first.n) == ("omega", 17)
    assert first.vertex_count == expected_vertex_count("omega", 17)


def test_canonical_subgraph_unknown_name():
    with pytest.raises(ValueError):
        canonical_subgraph(build_graph("gamma", 0), "first")
    with pytest.raises(ValueError):
        canonical_subgraph(build_graph("gamma", 5), "nonsense")


def test_every_annotation_checks_out():
    for family in ("gamma", "omega"):
        for n in range(11):
            g = build_graph(family, n)
            for name in sorted(g.subcopies):
                sub = canonical_subgraph(g, name)  # raises on any mismatch
                target = g.subcopies[name]
                assert sub.family == g.family
                assert sub.n == target.target_n


def test_recursion_split_partitions_the_vertex_set():
    for family, lo in (("gamma", 3), ("omega", 5)):
        for n in range(lo, 11):
            g = build_graph(family, n)
            pieces = [g.subcopies[name].vertices for name in ("cube-pair-0", "second", "third")]
            combined = sorted(v for piece in pieces for v in piece)
            assert combined == list(range(g.vertex_count)), (family, n)


def test_export_edgelist_golden():
    assert export_graph(build_graph("gamma", 1), "edgelist") == "0 1\n"
    assert export_graph(build_graph("omega", 1), "edgelist") == "0 1\n"
    assert export_graph(build_graph("gamma", 0), "edgelist") == ""


def test_export_dot_golden():
    expected = (
        "graph gamma_2 {\n"
        '  "00";\n'
        '  "01";\n'
        '  "10";\n'
        '  "00" -- "01";\n'
        '  "00" -- "10";\n'
        "}\n"
    )
    assert export_graph(build_graph("gamma", 2), "dot") == expected


def test_export_is_deterministic_and_rejects_unknown_formats():
    for fmt in ("edgelist", "dot"):
        assert export_graph(build_graph("omega", 6), fmt) == export_graph(build_graph("omega", 6), fmt)
    with pytest.raises(ValueError):
        export_graph(build_graph("gamma", 2), "gml")


def test_find_isomorphism_rejects_non_isomorphic_pairs():
    assert find_isomorphism(build_graph("gamma", 3), build_graph("omega", 4)) is None  # 5 vs 7 vertices
    path = custom_graph(["x", "y", "z"], [("x", "y"), ("y", "z")])
    triangle = custom_graph(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")])
    assert find_isomorphism(path, triangle) is None
    assert find_isomorphism(build_graph("gamma", 2), path) is not None


def test_find_isomorphism_places_each_component_of_a_disconnected_graph():
    def cycle(names):
        return list(zip(names, names[1:] + names[0]))

    # C6 and two triangles: 6 vertices, 6 edges, every degree 2, not isomorphic
    hexagon = custom_graph(list("abcdef"), cycle("abcdef"))
    triangles = custom_graph(list("abcdef"), cycle("abc") + cycle("def"))
    assert find_isomorphism(hexagon, triangles) is None
    assert find_isomorphism(triangles, hexagon) is None
    # two triangles and an isolated vertex, against a copy with shuffled labels
    edges = cycle("abc") + cycle("def")
    g = custom_graph(list("abcdefg"), edges)
    rename = dict(zip("abcdefg", "qxmgtcz"))
    h = custom_graph(list(rename.values()), [(rename[a], rename[b]) for a, b in edges])
    iso = find_isomorphism(g, h)
    assert iso is not None and sorted(iso.values()) == sorted(h.labels)
    h_edges = {frozenset((h.labels[u], h.labels[v])) for u, v in h.edges()}
    assert {frozenset((iso[g.labels[u]], iso[g.labels[v]])) for u, v in g.edges()} == h_edges


def test_find_isomorphism_returns_to_a_position_after_a_dead_end():
    # two 5-vertex paths; g's root a, the middle's neighbour, first maps to
    # h's lowest degree-2 vertex a, the middle itself, whose neighbours
    # have no degree-1 image for g's b: the search returns to the root,
    # whose remaining candidates were filtered when it entered
    edges = [("a", "b"), ("a", "d"), ("c", "d"), ("c", "e")]
    g = custom_graph(list("abcde"), edges)
    rename = dict(zip("abcde", "bdcae"))
    h = custom_graph(list("abcde"), [(rename[a], rename[b]) for a, b in edges])
    iso = find_isomorphism(g, h)
    assert iso is not None and sorted(iso.values()) == list(h.labels)
    h_edges = {frozenset((h.labels[u], h.labels[v])) for u, v in h.edges()}
    assert {frozenset((iso[g.labels[u]], iso[g.labels[v]])) for u, v in g.edges()} == h_edges


@pytest.mark.parametrize("family", ["gamma", "omega"])
@pytest.mark.parametrize("n", [15, 16])
def test_find_isomorphism_maps_members_past_a_thousand_vertices_onto_themselves(family, n):
    # one position per vertex, more than the interpreter's default recursion limit
    g = build_graph(family, n)
    assert g.vertex_count > 1000
    iso = find_isomorphism(g, g)
    assert iso is not None and sorted(iso.values()) == list(g.labels)
    edges = {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges()}
    assert {frozenset((iso[g.labels[u]], iso[g.labels[v]])) for u, v in g.edges()} == edges


@pytest.mark.parametrize(
    "labels, edges, message",
    [
        (["a", "b"], [("a", "a"), ("a", "b")], "self-loop"),
        (["a"], [("a", "z")], "unknown vertex 'z'"),
        (["a"], [("z", "a")], "unknown vertex 'z'"),
        (["a", "a"], [], "duplicate"),
        (["", "a"], [("", "a")], re.escape("edge ('', 'a') has an empty label")),
    ],
)
def test_custom_graph_rejects_loops_unknown_and_duplicate_labels(labels, edges, message):
    with pytest.raises(ValueError, match=message):
        custom_graph(labels, edges)


def test_custom_graph_rejects_labels_the_exports_cannot_carry():
    with pytest.raises(ValueError, match=re.escape(repr('a"b'))):
        custom_graph(['a"b', "c\\"], [('a"b', "c\\")])
    for bad in ("c\\", "a b", "tab\there", "line\n", "nb\u00a0sp"):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            custom_graph(["x", bad], [])


def test_exports_give_back_the_labels_of_a_custom_graph():
    labels = ["", "a'b", "x-y", "{}", "\u00fc"]
    edges = [("a'b", "x-y"), ("x-y", "{}"), ("{}", "\u00fc")]
    g = custom_graph(labels, edges)
    expected = sorted(tuple(sorted(pair)) for pair in edges)
    # edge list: two fields per line
    assert [tuple(line.split()) for line in export_graph(g, "edgelist").splitlines()] == expected
    # DOT: every node and edge line reads back as quoted names
    lines = export_graph(g, "dot").splitlines()[1:-1]
    names = [re.fullmatch(r'  "([^"\\]*)"(?: -- "([^"\\]*)")?;', line) for line in lines]
    assert all(names), lines
    assert [m.groups() for m in names] == [(lab, None) for lab in sorted(labels)] + expected
    assert export_graph(build_graph("gamma", 0), "dot") == 'graph gamma_0 {\n  "";\n}\n'

#!/usr/bin/env python3
# Building the two graph families, peeking at their recursive structure,
# and exporting them as text.

from cubefactor import (
    build_graph,
    canonical_subgraph,
    custom_graph,
    expected_vertex_count,
    export_graph,
    find_isomorphism,
)

# The gamma family: binary strings with no "11", adjacent at Hamming
# distance 1. Vertex counts follow the Fibonacci numbers.
for n in range(8):
    g = build_graph("gamma", n)
    assert g.vertex_count == expected_vertex_count("gamma", n)
print("gamma vertex counts:", [build_graph("gamma", n).vertex_count for n in range(8)])

g4 = build_graph("gamma", 4)
print("\ngamma order 4, edge list:")
print(export_graph(g4, "edgelist"))

# Every graph carries annotations for the parts its recursion is made of;
# extracting one hands back the smaller member, already verified.
sub = canonical_subgraph(g4, "second")  # the prefix-"10" part
print("prefix-'10' part of order 4 is the order-2 member:", sub.labels)

# The omega family: recursive matching construction over path base cases.
# Its order-4 member is a 2x3 grid with a pendant vertex on one corner.
o4 = build_graph("omega", 4)
print("\nomega order 4, dot format:")
print(export_graph(o4, "dot"))

figure = custom_graph(
    ["a0", "a1", "a2", "b0", "b1", "b2", "p"],
    [
        ("a0", "a1"), ("a1", "a2"), ("b0", "b1"), ("b1", "b2"),
        ("a0", "b0"), ("a1", "b1"), ("a2", "b2"), ("a2", "p"),
    ],
)
iso = find_isomorphism(o4, figure)
print("isomorphism onto the grid-plus-pendant drawing:")
for src in sorted(iso):
    print(f"  {src} -> {iso[src]}")

print("\nomega vertex counts:", [build_graph("omega", n).vertex_count for n in range(10)])
print("(Lucas numbers from order 2 on)")

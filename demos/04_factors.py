#!/usr/bin/env python3
# The three factor solvers on one instance each, verified and compared
# against the polynomial coefficients.

from cubefactor import (
    build_graph,
    enumerate_cubes,
    exact_min_factor,
    factor_from_json,
    factor_to_json,
    greedy_layered_factor,
    padovan,
    qpoly_rec,
    structural_factor,
    verify_factor,
)


def show(g, factor, title):
    profile = verify_factor(g, factor)
    print(f"{title}: {factor.part_count} parts, profile {list(profile.counts)}")
    for part in factor.parts:
        labels = " ".join(g.labels[v] for v in part.vertices)
        print(f"  k={part.dimension}: {labels}")


g5 = build_graph("gamma", 5)

# What raw material is there? Count the induced cubes per dimension.
levels = enumerate_cubes(g5)
print("induced cubes in gamma order 5:", [len(level) for level in levels])

# Route one: exact branch-and-bound cover. The minimum part count is a
# Padovan number.
exact = exact_min_factor(g5)
show(g5, exact, "\nexact search")
assert exact.part_count == padovan(6)

# Route two: maximum packing per dimension, largest first.
show(g5, greedy_layered_factor(g5), "\nlayered greedy")

# Route three: the recursive lift-and-embed construction. Its profile is
# the polynomial's coefficient list by design.
structural = structural_factor("gamma", 5, g5)
show(g5, structural, "\nstructural recursion")
assert structural.profile().counts == qpoly_rec("gamma", 5).coeffs

# Factors serialize to JSON with vertex labels and round-trip exactly.
o5 = build_graph("omega", 5)
factor = structural_factor("omega", 5, o5)
text = factor_to_json(o5, factor)
print("\nomega order 5 factor as JSON:")
print(text)
assert factor_from_json(o5, text) == factor
print("round trip: ok")

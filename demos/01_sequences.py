#!/usr/bin/env python3
# Tour of the integer-sequence layer: the three recurrences, the binomial
# boundary conventions, and the Lucas triangle computed two independent ways.

from cubefactor import (
    binom_ext,
    fib,
    lucas,
    lucas_triangle_additive_row,
    lucas_triangle_row,
    padovan,
    padovan_closed,
)

print("fibonacci :", [fib(n) for n in range(12)])
print("lucas     :", [lucas(n) for n in range(12)])
print("padovan   :", [padovan(n) for n in range(12)])

# The Padovan numbers also fall out of a pure binomial sum. Same values,
# completely different computation route.
print("padovan (closed form):", [padovan_closed(n) for n in range(12)])
assert all(padovan_closed(n) == padovan(n) for n in range(200))

# One binomial convention carries the closed-form coefficient formulas:
# C(-1,-1) = 1 seeds the Lucas triangle's apex.
print("C(-1,-1) =", binom_ext(-1, -1))

# The Lucas triangle: rows start with 1 and end with 2 (apex 2). The additive
# formula C(n,k) + C(n-1,k-1) and the Pascal-style row recurrence must agree.
print("\nLucas triangle:")
for n in range(7):
    row = lucas_triangle_row(n)
    assert row == lucas_triangle_additive_row(n)
    print("  " + " ".join(f"{v:3d}" for v in row))

# Row sums triple-halve: 3 * 2^(n-1) from row 1 on.
print("row sums:", [sum(lucas_triangle_row(n)) for n in range(1, 8)])

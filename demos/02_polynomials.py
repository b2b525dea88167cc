#!/usr/bin/env python3
# The cube-factor polynomials by three routes, and what their evaluations
# count: plug in 1 to get Padovan numbers, plug in 2 to get vertex counts.

from cubefactor import (
    Family,
    eval_at,
    fib,
    gf_series,
    lucas,
    padovan,
    poly_to_json,
    q_closed_row,
    qpoly_rec,
)

print("coefficient triangle, gamma family (rows n = 0..8):")
for n in range(9):
    print("  " + " ".join(str(c) for c in qpoly_rec("gamma", n).coeffs))

print("\ncoefficient triangle, omega family (rows n = 0..8):")
for n in range(9):
    print("  " + " ".join(str(c) for c in qpoly_rec("omega", n).coeffs))

# Route two: closed forms built on binomials and the Lucas triangle.
# Route three: expand the rational generating function in y. All three
# must produce identical big integers.
for family in Family:
    series = gf_series(family, 40)
    lo = 0 if family is Family.GAMMA else 2
    for n in range(41):
        poly = qpoly_rec(family, n)
        assert series[n] == poly.coeffs
        if n >= lo:  # one closed-form row per n
            assert q_closed_row(family, n, poly.degree + 1) == list(poly.coeffs)
print("\nthree routes agree for n <= 40, both families")

# The evaluations tie the polynomials back to the sequences: the total
# part count of an optimal factor is a Padovan number, and evaluating at 2
# recovers the number of covered vertices.
n = 12
gamma_poly = qpoly_rec("gamma", n)
omega_poly = qpoly_rec("omega", n)
print(f"\nat n={n}:")
print("  gamma eval@1 =", eval_at(gamma_poly, 1), " padovan(n+1) =", padovan(n + 1))
print("  gamma eval@2 =", eval_at(gamma_poly, 2), " fib(n+2)     =", fib(n + 2))
print("  omega eval@2 =", eval_at(omega_poly, 2), " lucas(n)     =", lucas(n))

# Exact-integer JSON, coefficients as decimal strings:
print("\njson:", poly_to_json(qpoly_rec("gamma", 5)))

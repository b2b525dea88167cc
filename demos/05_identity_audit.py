#!/usr/bin/env python3
# Replaying every identity as a prediction and auditing it against the
# recurrence-built polynomials. PASS/FAIL entries gate, INFO entries report
# the empirically matching reading of the known-shaky predictions.

from cubefactor import identity_audit

for family in ("gamma", "omega"):
    print(f"== {family}, n <= 40 ==")
    for entry in identity_audit(family, 40):
        print(" ", entry.line())
    print()

# Three entries deserve a closer look:
#
# * "gamma skew-diagonal sum vs fibonacci index" is INFO: the predicted
#   index is m, the sums actually follow fib(m+1). The audit scans shifts
#   and prints the one that matches instead of asserting the prediction.
#
# * "omega shifted-index values, dual reading" is INFO: the printed
#   formulas C(m+k,k) / C(m+k-1,k) do not match the polynomials, but the
#   substituted reading C(m+k-1,k) / C(m+k-1,k-1) matches everywhere.
#
# * "omega nonzero-count equals floor((n+5)/3)" is a genuine FAIL: the
#   tabulated row at n=8 already has five nonzero entries where the
#   prediction says four. The observed count is floor(n/2)+1, minus one
#   when 3 divides n. The audit exposes the wrong prediction rather than
#   inheriting it.

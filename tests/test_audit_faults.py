"""The audits' FAIL paths under injected faults.

The goldens reach a single FAIL line, so these tests corrupt one value on
the computed side of each check and pin every line the audits print: a
recurrence coefficient on a row of each residue of n mod 3 (plus n=6, below
the omega nonzero-count's known first failure), one closed-form
coefficient, one Padovan closed-form term and one Lucas-triangle entry.
The closed-form and Lucas-triangle faults go into one entry of the row
functions the audits read, ``q_closed_row`` and
``lucas_triangle_additive_row``. Two more recurrence faults sit at the
edges of a row, where a comparison that truncates rows or misplaces k
would miss them: a row that gains a coefficient 1 one past its degree
(n=12), a bump at the last entry of the longest row (n=30, the audited
max-n), and a closed-form coefficient 1 one past the degree (n=12, k=7).
Faults enter through module attributes the audits look up at call time.
"""

from __future__ import annotations

import pytest

from cubefactor import audit, polynomials, sequences
from cubefactor.polynomials import CubeFactorPolynomial, identity_audit

EXPECTED = {
    ('row', 6, 0, 'gamma'): [
        'FAIL gamma eval-at-1 equals padovan(n+1): first failure at n=6: expected 5, got 6',
        'FAIL gamma eval-at-2 equals fibonacci(n+2): first failure at n=6: expected 21, got 22',
        'FAIL gamma closed-form coefficients equal recurrence: first failure at n=6: expected 2, got 1',
        'FAIL gamma series-expansion terms equal recurrence: first failure at n=6: expected 0, got 1',
        'PASS gamma padovan series equals recurrence padovan: [n=0..30]',
        'PASS gamma nonzero-count equals floor((n+4)/3): [n=0..30]',
        'PASS gamma degree equals ceil(n/2): [n=0..30]',
        'INFO gamma degree convention: degree follows ceil(n/2); the floor(n/2) reading disagrees first at n=1 (degree 1)',
        'FAIL gamma anti-diagonal sum equals 2^m on n=3m-1,3m else 0: first failure at n=6: expected 4, got 5',
        'FAIL gamma anti-diagonal per-k values follow the C(m,k) case split: first failure at n=6: expected 1, got 2',
        'FAIL gamma shifted-index values q_k(n+2k) equal C(m+k,k) on n=3m-1,3m else 0: first failure at n=6: expected 1, got 2',
        'INFO gamma skew-diagonal sum vs fibonacci index: predicted fib(m) on n=3m-1,3m; matching shifts [] (observed fib(m+1)) [n=0..30]',
        'PASS gamma two-term closed form follows the C(m,k) case split: [n=0..30]',
    ],
    ('row', 6, 0, 'omega'): [
        'FAIL omega eval-at-1 equals padovan(n+1): first failure at n=6: expected 5, got 6',
        'FAIL omega eval-at-2 equals lucas(n): first failure at n=6: expected 18, got 19',
        'FAIL omega closed-form coefficients equal recurrence: first failure at n=6: expected 1, got 0',
        'FAIL omega series-expansion terms equal recurrence: first failure at n=6: expected 0, got 1',
        'PASS omega padovan series equals recurrence padovan: [n=0..30]',
        'FAIL omega nonzero-count equals floor((n+5)/3): first failure at n=6: predicted 3, got 4; observed count is floor(n/2)+1 minus 1 when 3 divides n',
        'PASS omega degree equals floor(n/2): [n=2..30]',
        'FAIL omega anti-diagonal sum follows the 2^(m-1) / 3*2^(m-1) case split: first failure at n=6: expected 2, got 3',
        'PASS omega anti-diagonal per-k values follow the closed-form case split: [n=0..30, k>=2, n-k>=2]',
        'INFO omega shifted-index values q_k(n+2k), dual reading: printed reading matches: False (first miss n=0, k=1: predicted 0, got 1); substituted reading matches: True',
        'FAIL omega skew-diagonal sum follows the fib/lucas case split: first failure at n=6: expected 1, got 2',
    ],
    ('row', 9, 1, 'gamma'): [
        'FAIL gamma eval-at-1 equals padovan(n+1): first failure at n=9: expected 12, got 13',
        'FAIL gamma eval-at-2 equals fibonacci(n+2): first failure at n=9: expected 89, got 91',
        'FAIL gamma closed-form coefficients equal recurrence: first failure at n=9: expected 1, got 0',
        'FAIL gamma series-expansion terms equal recurrence: first failure at n=9: expected 0, got 1',
        'PASS gamma padovan series equals recurrence padovan: [n=0..30]',
        'FAIL gamma nonzero-count equals floor((n+4)/3): first failure at n=9: expected 4, got 5',
        'PASS gamma degree equals ceil(n/2): [n=0..30]',
        'INFO gamma degree convention: degree follows ceil(n/2); the floor(n/2) reading disagrees first at n=1 (degree 1)',
        'FAIL gamma anti-diagonal sum equals 2^m on n=3m-1,3m else 0: first failure at n=10: expected 0, got 1',
        'FAIL gamma anti-diagonal per-k values follow the C(m,k) case split: first failure at n=10: expected 0, got 1',
        'FAIL gamma shifted-index values q_k(n+2k) equal C(m+k,k) on n=3m-1,3m else 0: first failure at n=7: expected 0, got 1',
        'INFO gamma skew-diagonal sum vs fibonacci index: predicted fib(m) on n=3m-1,3m; matching shifts [] (observed fib(m+1)) [n=0..30]',
        'PASS gamma two-term closed form follows the C(m,k) case split: [n=0..30]',
    ],
    ('row', 9, 1, 'omega'): [
        'FAIL omega eval-at-1 equals padovan(n+1): first failure at n=9: expected 12, got 13',
        'FAIL omega eval-at-2 equals lucas(n): first failure at n=9: expected 76, got 78',
        'FAIL omega closed-form coefficients equal recurrence: first failure at n=9: expected 5, got 4',
        'FAIL omega series-expansion terms equal recurrence: first failure at n=9: expected 0, got 1',
        'PASS omega padovan series equals recurrence padovan: [n=0..30]',
        'FAIL omega nonzero-count equals floor((n+5)/3): first failure at n=8: predicted 4, got 5; observed count is floor(n/2)+1 minus 1 when 3 divides n',
        'PASS omega degree equals floor(n/2): [n=2..30]',
        'FAIL omega anti-diagonal sum follows the 2^(m-1) / 3*2^(m-1) case split: first failure at n=10: expected 12, got 13',
        'PASS omega anti-diagonal per-k values follow the closed-form case split: [n=0..30, k>=2, n-k>=2]',
        'INFO omega shifted-index values q_k(n+2k), dual reading: printed reading matches: False (first miss n=0, k=1: predicted 0, got 1); substituted reading matches: False (first miss n=7, k=1)',
        'FAIL omega skew-diagonal sum follows the fib/lucas case split: first failure at n=13: expected 7, got 8',
    ],
    ('row', 10, 0, 'gamma'): [
        'FAIL gamma eval-at-1 equals padovan(n+1): first failure at n=10: expected 16, got 17',
        'FAIL gamma eval-at-2 equals fibonacci(n+2): first failure at n=10: expected 144, got 145',
        'FAIL gamma closed-form coefficients equal recurrence: first failure at n=10: expected 1, got 0',
        'FAIL gamma series-expansion terms equal recurrence: first failure at n=10: expected 0, got 1',
        'PASS gamma padovan series equals recurrence padovan: [n=0..30]',
        'FAIL gamma nonzero-count equals floor((n+4)/3): first failure at n=10: expected 4, got 5',
        'PASS gamma degree equals ceil(n/2): [n=0..30]',
        'INFO gamma degree convention: degree follows ceil(n/2); the floor(n/2) reading disagrees first at n=1 (degree 1)',
        'FAIL gamma anti-diagonal sum equals 2^m on n=3m-1,3m else 0: first failure at n=10: expected 0, got 1',
        'FAIL gamma anti-diagonal per-k values follow the C(m,k) case split: first failure at n=10: expected 0, got 1',
        'FAIL gamma shifted-index values q_k(n+2k) equal C(m+k,k) on n=3m-1,3m else 0: first failure at n=10: expected 0, got 1',
        'INFO gamma skew-diagonal sum vs fibonacci index: predicted fib(m) on n=3m-1,3m; matching shifts [] (observed fib(m+1)) [n=0..30]',
        'PASS gamma two-term closed form follows the C(m,k) case split: [n=0..30]',
    ],
    ('row', 10, 0, 'omega'): [
        'FAIL omega eval-at-1 equals padovan(n+1): first failure at n=10: expected 16, got 17',
        'FAIL omega eval-at-2 equals lucas(n): first failure at n=10: expected 123, got 124',
        'FAIL omega closed-form coefficients equal recurrence: first failure at n=10: expected 2, got 1',
        'FAIL omega series-expansion terms equal recurrence: first failure at n=10: expected 0, got 1',
        'PASS omega padovan series equals recurrence padovan: [n=0..30]',
        'FAIL omega nonzero-count equals floor((n+5)/3): first failure at n=8: predicted 4, got 5; observed count is floor(n/2)+1 minus 1 when 3 divides n',
        'PASS omega degree equals floor(n/2): [n=2..30]',
        'FAIL omega anti-diagonal sum follows the 2^(m-1) / 3*2^(m-1) case split: first failure at n=10: expected 12, got 13',
        'PASS omega anti-diagonal per-k values follow the closed-form case split: [n=0..30, k>=2, n-k>=2]',
        'INFO omega shifted-index values q_k(n+2k), dual reading: printed reading matches: False (first miss n=0, k=1: predicted 0, got 1); substituted reading matches: True',
        'FAIL omega skew-diagonal sum follows the fib/lucas case split: first failure at n=10: expected 4, got 5',
    ],
    ('row', 11, 2, 'gamma'): [
        'FAIL gamma eval-at-1 equals padovan(n+1): first failure at n=11: expected 21, got 22',
        'FAIL gamma eval-at-2 equals fibonacci(n+2): first failure at n=11: expected 233, got 237',
        'FAIL gamma closed-form coefficients equal recurrence: first failure at n=11: expected 1, got 0',
        'FAIL gamma series-expansion terms equal recurrence: first failure at n=11: expected 0, got 1',
        'PASS gamma padovan series equals recurrence padovan: [n=0..30]',
        'FAIL gamma nonzero-count equals floor((n+4)/3): first failure at n=11: expected 5, got 6',
        'PASS gamma degree equals ceil(n/2): [n=0..30]',
        'INFO gamma degree convention: degree follows ceil(n/2); the floor(n/2) reading disagrees first at n=1 (degree 1)',
        'FAIL gamma anti-diagonal sum equals 2^m on n=3m-1,3m else 0: first failure at n=13: expected 0, got 1',
        'FAIL gamma anti-diagonal per-k values follow the C(m,k) case split: first failure at n=13: expected 0, got 1',
        'FAIL gamma shifted-index values q_k(n+2k) equal C(m+k,k) on n=3m-1,3m else 0: first failure at n=7: expected 0, got 1',
        'INFO gamma skew-diagonal sum vs fibonacci index: predicted fib(m) on n=3m-1,3m; matching shifts [] (observed fib(m+1)) [n=0..30]',
        'PASS gamma two-term closed form follows the C(m,k) case split: [n=0..30]',
    ],
    ('row', 11, 2, 'omega'): [
        'FAIL omega eval-at-1 equals padovan(n+1): first failure at n=11: expected 21, got 22',
        'FAIL omega eval-at-2 equals lucas(n): first failure at n=11: expected 199, got 203',
        'FAIL omega closed-form coefficients equal recurrence: first failure at n=11: expected 10, got 9',
        'FAIL omega series-expansion terms equal recurrence: first failure at n=11: expected 0, got 1',
        'PASS omega padovan series equals recurrence padovan: [n=0..30]',
        'FAIL omega nonzero-count equals floor((n+5)/3): first failure at n=8: predicted 4, got 5; observed count is floor(n/2)+1 minus 1 when 3 divides n',
        'PASS omega degree equals floor(n/2): [n=2..30]',
        'FAIL omega anti-diagonal sum follows the 2^(m-1) / 3*2^(m-1) case split: first failure at n=13: expected 24, got 25',
        'FAIL omega anti-diagonal per-k values follow the closed-form case split: first failure at n=13: expected 9, got 10',
        'INFO omega shifted-index values q_k(n+2k), dual reading: printed reading matches: False (first miss n=0, k=1: predicted 0, got 1); substituted reading matches: False (first miss n=7, k=2)',
        'FAIL omega skew-diagonal sum follows the fib/lucas case split: first failure at n=19: expected 18, got 19',
    ],
    ('closed', 12, 2, 'gamma'): [
        'PASS gamma eval-at-1 equals padovan(n+1): [n=0..30]',
        'PASS gamma eval-at-2 equals fibonacci(n+2): [n=0..30]',
        'FAIL gamma closed-form coefficients equal recurrence: first failure at n=12: expected 10, got 11',
        'PASS gamma series-expansion terms equal recurrence: [n=0..30]',
        'PASS gamma padovan series equals recurrence padovan: [n=0..30]',
        'PASS gamma nonzero-count equals floor((n+4)/3): [n=0..30]',
        'PASS gamma degree equals ceil(n/2): [n=0..30]',
        'INFO gamma degree convention: degree follows ceil(n/2); the floor(n/2) reading disagrees first at n=1 (degree 1)',
        'PASS gamma anti-diagonal sum equals 2^m on n=3m-1,3m else 0: [n=0..30]',
        'PASS gamma anti-diagonal per-k values follow the C(m,k) case split: [n=0..30]',
        'PASS gamma shifted-index values q_k(n+2k) equal C(m+k,k) on n=3m-1,3m else 0: [n=0..30]',
        'INFO gamma skew-diagonal sum vs fibonacci index: predicted fib(m) on n=3m-1,3m; matching shifts [1] (observed fib(m+1)) [n=0..30]',
        'FAIL gamma two-term closed form follows the C(m,k) case split: first failure at n=12: expected 10, got 11',
    ],
    ('closed', 12, 2, 'omega'): [
        'PASS omega eval-at-1 equals padovan(n+1): [n=0..30]',
        'PASS omega eval-at-2 equals lucas(n): [n=2..30]',
        'FAIL omega closed-form coefficients equal recurrence: first failure at n=12: expected 6, got 7',
        'PASS omega series-expansion terms equal recurrence: [n=0..30]',
        'PASS omega padovan series equals recurrence padovan: [n=0..30]',
        'FAIL omega nonzero-count equals floor((n+5)/3): first failure at n=8: predicted 4, got 5; observed count is floor(n/2)+1 minus 1 when 3 divides n',
        'PASS omega degree equals floor(n/2): [n=2..30]',
        'PASS omega anti-diagonal sum follows the 2^(m-1) / 3*2^(m-1) case split: [n=3..30]',
        'PASS omega anti-diagonal per-k values follow the closed-form case split: [n=0..30, k>=2, n-k>=2]',
        'INFO omega shifted-index values q_k(n+2k), dual reading: printed reading matches: False (first miss n=0, k=1: predicted 0, got 1); substituted reading matches: True',
        'PASS omega skew-diagonal sum follows the fib/lucas case split: [n=6..30]',
    ],
    ('closed', 12, 7, 'gamma'): [
        'PASS gamma eval-at-1 equals padovan(n+1): [n=0..30]',
        'PASS gamma eval-at-2 equals fibonacci(n+2): [n=0..30]',
        'FAIL gamma closed-form coefficients equal recurrence: first failure at n=12: expected 0, got 1',
        'PASS gamma series-expansion terms equal recurrence: [n=0..30]',
        'PASS gamma padovan series equals recurrence padovan: [n=0..30]',
        'PASS gamma nonzero-count equals floor((n+4)/3): [n=0..30]',
        'PASS gamma degree equals ceil(n/2): [n=0..30]',
        'INFO gamma degree convention: degree follows ceil(n/2); the floor(n/2) reading disagrees first at n=1 (degree 1)',
        'PASS gamma anti-diagonal sum equals 2^m on n=3m-1,3m else 0: [n=0..30]',
        'PASS gamma anti-diagonal per-k values follow the C(m,k) case split: [n=0..30]',
        'PASS gamma shifted-index values q_k(n+2k) equal C(m+k,k) on n=3m-1,3m else 0: [n=0..30]',
        'INFO gamma skew-diagonal sum vs fibonacci index: predicted fib(m) on n=3m-1,3m; matching shifts [1] (observed fib(m+1)) [n=0..30]',
        'FAIL gamma two-term closed form follows the C(m,k) case split: first failure at n=12: expected 0, got 1',
    ],
    ('closed', 12, 7, 'omega'): [
        'PASS omega eval-at-1 equals padovan(n+1): [n=0..30]',
        'PASS omega eval-at-2 equals lucas(n): [n=2..30]',
        'FAIL omega closed-form coefficients equal recurrence: first failure at n=12: expected 0, got 1',
        'PASS omega series-expansion terms equal recurrence: [n=0..30]',
        'PASS omega padovan series equals recurrence padovan: [n=0..30]',
        'FAIL omega nonzero-count equals floor((n+5)/3): first failure at n=8: predicted 4, got 5; observed count is floor(n/2)+1 minus 1 when 3 divides n',
        'PASS omega degree equals floor(n/2): [n=2..30]',
        'PASS omega anti-diagonal sum follows the 2^(m-1) / 3*2^(m-1) case split: [n=3..30]',
        'PASS omega anti-diagonal per-k values follow the closed-form case split: [n=0..30, k>=2, n-k>=2]',
        'INFO omega shifted-index values q_k(n+2k), dual reading: printed reading matches: False (first miss n=0, k=1: predicted 0, got 1); substituted reading matches: True',
        'PASS omega skew-diagonal sum follows the fib/lucas case split: [n=6..30]',
    ],
    ('grown', 12, 'gamma'): [
        'FAIL gamma eval-at-1 equals padovan(n+1): first failure at n=12: expected 28, got 29',
        'FAIL gamma eval-at-2 equals fibonacci(n+2): first failure at n=12: expected 377, got 505',
        'FAIL gamma closed-form coefficients equal recurrence: first failure at n=12: expected 1, got 0',
        'FAIL gamma series-expansion terms equal recurrence: first failure at n=12: expected 0, got 1',
        'PASS gamma padovan series equals recurrence padovan: [n=0..30]',
        'FAIL gamma nonzero-count equals floor((n+4)/3): first failure at n=12: expected 5, got 6',
        'FAIL gamma degree equals ceil(n/2): first failure at n=12: expected 6, got 7',
        'INFO gamma degree convention: degree follows ceil(n/2); the floor(n/2) reading disagrees first at n=1 (degree 1)',
        'FAIL gamma anti-diagonal sum equals 2^m on n=3m-1,3m else 0: first failure at n=19: expected 0, got 1',
        'FAIL gamma anti-diagonal per-k values follow the C(m,k) case split: first failure at n=19: expected 0, got 1',
        'PASS gamma shifted-index values q_k(n+2k) equal C(m+k,k) on n=3m-1,3m else 0: [n=0..30]',
        'INFO gamma skew-diagonal sum vs fibonacci index: predicted fib(m) on n=3m-1,3m; matching shifts [1] (observed fib(m+1)) [n=0..30]',
        'PASS gamma two-term closed form follows the C(m,k) case split: [n=0..30]',
    ],
    ('grown', 12, 'omega'): [
        'FAIL omega eval-at-1 equals padovan(n+1): first failure at n=12: expected 28, got 29',
        'FAIL omega eval-at-2 equals lucas(n): first failure at n=12: expected 322, got 450',
        'FAIL omega closed-form coefficients equal recurrence: first failure at n=12: expected 1, got 0',
        'FAIL omega series-expansion terms equal recurrence: first failure at n=12: expected 0, got 1',
        'PASS omega padovan series equals recurrence padovan: [n=0..30]',
        'FAIL omega nonzero-count equals floor((n+5)/3): first failure at n=8: predicted 4, got 5; observed count is floor(n/2)+1 minus 1 when 3 divides n',
        'FAIL omega degree equals floor(n/2): first failure at n=12: expected 6, got 7',
        'FAIL omega anti-diagonal sum follows the 2^(m-1) / 3*2^(m-1) case split: first failure at n=19: expected 96, got 97',
        'FAIL omega anti-diagonal per-k values follow the closed-form case split: first failure at n=19: expected 0, got 1',
        'INFO omega shifted-index values q_k(n+2k), dual reading: printed reading matches: False (first miss n=0, k=1: predicted 0, got 1); substituted reading matches: True',
        'PASS omega skew-diagonal sum follows the fib/lucas case split: [n=6..30]',
    ],
    ('last', 30, 'gamma'): [
        'FAIL gamma eval-at-1 equals padovan(n+1): first failure at n=30: expected 4410, got 4411',
        'FAIL gamma eval-at-2 equals fibonacci(n+2): first failure at n=30: expected 2178309, got 2211077',
        'FAIL gamma closed-form coefficients equal recurrence: first failure at n=30: expected 2, got 1',
        'FAIL gamma series-expansion terms equal recurrence: first failure at n=30: expected 0, got 1',
        'PASS gamma padovan series equals recurrence padovan: [n=0..30]',
        'PASS gamma nonzero-count equals floor((n+4)/3): [n=0..30]',
        'PASS gamma degree equals ceil(n/2): [n=0..30]',
        'INFO gamma degree convention: degree follows ceil(n/2); the floor(n/2) reading disagrees first at n=1 (degree 1)',
        'PASS gamma anti-diagonal sum equals 2^m on n=3m-1,3m else 0: [n=0..30]',
        'PASS gamma anti-diagonal per-k values follow the C(m,k) case split: [n=0..30]',
        'FAIL gamma shifted-index values q_k(n+2k) equal C(m+k,k) on n=3m-1,3m else 0: first failure at n=0: expected 1, got 2',
        'INFO gamma skew-diagonal sum vs fibonacci index: predicted fib(m) on n=3m-1,3m; matching shifts [1] (observed fib(m+1)) [n=0..30]',
        'PASS gamma two-term closed form follows the C(m,k) case split: [n=0..30]',
    ],
    ('last', 30, 'omega'): [
        'FAIL omega eval-at-1 equals padovan(n+1): first failure at n=30: expected 4410, got 4411',
        'FAIL omega eval-at-2 equals lucas(n): first failure at n=30: expected 1860498, got 1893266',
        'FAIL omega closed-form coefficients equal recurrence: first failure at n=30: expected 2, got 1',
        'FAIL omega series-expansion terms equal recurrence: first failure at n=30: expected 0, got 1',
        'PASS omega padovan series equals recurrence padovan: [n=0..30]',
        'FAIL omega nonzero-count equals floor((n+5)/3): first failure at n=8: predicted 4, got 5; observed count is floor(n/2)+1 minus 1 when 3 divides n',
        'PASS omega degree equals floor(n/2): [n=2..30]',
        'PASS omega anti-diagonal sum follows the 2^(m-1) / 3*2^(m-1) case split: [n=3..30]',
        'PASS omega anti-diagonal per-k values follow the closed-form case split: [n=0..30, k>=2, n-k>=2]',
        'INFO omega shifted-index values q_k(n+2k), dual reading: printed reading matches: False (first miss n=0, k=1: predicted 0, got 1); substituted reading matches: False (first miss n=0, k=15)',
        'PASS omega skew-diagonal sum follows the fib/lucas case split: [n=6..30]',
    ],
    ('padovan_closed', 17): [
        'FAIL padovan closed-form equals recurrence: first failure at n=17',
        'PASS lucas-triangle recurrence rows equal the additive formula: [n=0..30]',
        'PASS lucas-triangle row sums equal 3*2^(n-1): [n=1..30]',
        'PASS fibonacci cassini identity: [n=1..30]',
        'PASS binomial extension is zero outside its support except C(-1,-1)=1: grid [-4..6]^2',
    ],
    ('lucas_triangle', 12, 5): [
        'PASS padovan closed-form equals recurrence: [n=0..30]',
        'FAIL lucas-triangle recurrence rows equal the additive formula: first failure at row 12',
        'PASS lucas-triangle row sums equal 3*2^(n-1): [n=1..30]',
        'PASS fibonacci cassini identity: [n=1..30]',
        'PASS binomial extension is zero outside its support except C(-1,-1)=1: grid [-4..6]^2',
    ],
}

ROW_CASES = sorted({key[1:3] for key in EXPECTED if key[0] == "row"})

# row-edge faults: (n, change to the coefficient list of row n)
EDGE_CASES = {
    "grown": (12, lambda coeffs: [*coeffs, 1]),
    "last": (30, lambda coeffs: [*coeffs[:-1], coeffs[-1] + 1]),
}


def change_recurrence_row(monkeypatch, n_bad, change):
    clean = polynomials.qpoly_rows

    def changed(fam):
        for poly in clean(fam):
            if poly.n == n_bad:
                poly = CubeFactorPolynomial(poly.family, poly.n, tuple(change(list(poly.coeffs))))
            yield poly

    monkeypatch.setattr(polynomials, "qpoly_rows", changed)


@pytest.mark.parametrize("family", ["gamma", "omega"])
@pytest.mark.parametrize("n_bad, k_bad", ROW_CASES)
def test_identity_audit_under_a_bumped_recurrence_coefficient(monkeypatch, family, n_bad, k_bad):
    def bump(coeffs):
        coeffs[k_bad] += 1
        return coeffs

    change_recurrence_row(monkeypatch, n_bad, bump)
    lines = [e.line() for e in identity_audit(family, 30)]
    assert lines == EXPECTED[("row", n_bad, k_bad, family)]


@pytest.mark.parametrize("family", ["gamma", "omega"])
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_identity_audit_under_a_fault_at_a_row_edge(monkeypatch, family, case):
    n_bad, change = EDGE_CASES[case]
    change_recurrence_row(monkeypatch, n_bad, change)
    lines = [e.line() for e in identity_audit(family, 30)]
    assert lines == EXPECTED[(case, n_bad, family)]


def bump_closed_form(monkeypatch, n_bad, k_bad):
    clean = polynomials.q_closed_row

    def bumped(fam, n, count):
        return [c + ((n, k) == (n_bad, k_bad)) for k, c in enumerate(clean(fam, n, count))]

    monkeypatch.setattr(polynomials, "q_closed_row", bumped)


@pytest.mark.parametrize("family", ["gamma", "omega"])
def test_identity_audit_under_a_wrong_closed_form_coefficient(monkeypatch, family):
    bump_closed_form(monkeypatch, 12, 2)
    lines = [e.line() for e in identity_audit(family, 30)]
    assert lines == EXPECTED[("closed", 12, 2, family)]


@pytest.mark.parametrize("family", ["gamma", "omega"])
def test_identity_audit_under_a_closed_form_coefficient_past_the_degree(monkeypatch, family):
    # q_12 has degree 6 in both families; k = 7 is the entry past the
    # degree that the closed-form row comparison must still read
    bump_closed_form(monkeypatch, 12, 7)
    lines = [e.line() for e in identity_audit(family, 30)]
    assert lines == EXPECTED[("closed", 12, 7, family)]


@pytest.mark.parametrize("family, entry, span", [
    ("gamma", "gamma degree equals ceil(n/2)", "[n=0..30]"),
    ("omega", "omega degree equals floor(n/2)", "[n=2..30]"),
])
def test_identity_audit_reads_the_degree_the_cli_uses(monkeypatch, family, entry, span):
    clean_lines = [e.line() for e in identity_audit(family, 30)]
    clean = polynomials.poly_degree
    monkeypatch.setattr(polynomials, "poly_degree", lambda fam, n: clean(fam, n) + (n == 12))
    lines = [e.line() for e in identity_audit(family, 30)]
    (changed,) = [i for i, (a, b) in enumerate(zip(clean_lines, lines)) if a != b]
    assert len(lines) == len(clean_lines)
    assert clean_lines[changed] == f"PASS {entry}: {span}"
    assert lines[changed] == f"FAIL {entry}: first failure at n=12: expected 7, got 6"


def test_sequence_audit_under_a_wrong_padovan_closed_form(monkeypatch):
    clean = sequences.padovan_closed
    monkeypatch.setattr(sequences, "padovan_closed", lambda n: clean(n) + (n == 17))
    lines = [e.line() for e in audit.sequence_audit(30)]
    assert lines == EXPECTED[("padovan_closed", 17)]


def test_sequence_audit_under_a_wrong_lucas_triangle_entry(monkeypatch):
    clean = sequences.lucas_triangle_additive_row

    def bumped(n):
        return [c + ((n, k) == (12, 5)) for k, c in enumerate(clean(n))]

    monkeypatch.setattr(sequences, "lucas_triangle_additive_row", bumped)
    lines = [e.line() for e in audit.sequence_audit(30)]
    assert lines == EXPECTED[("lucas_triangle", 12, 5)]

"""The closed forms a row at a time against per-entry reference formulas.

``q_closed_row`` walks each binomial line of the closed form by its term
ratio, and ``binomial_row`` builds C(n, 0..n) by the multiplicative step.
The references below evaluate every coefficient on its own, with one
``binom_ext`` (one ``math.comb``) per term, as the closed form is written
in the paper.
"""

from __future__ import annotations

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubefactor.polynomials import Family, poly_degree, q_closed_row, qpoly_rec
from cubefactor.sequences import (
    binom_ext,
    binomial_row,
    lucas_triangle_additive_row,
)


def binom_div3(numerator: int, k: int) -> int:
    # C(numerator/3, k), 0 when the upper index is not an integer
    return binom_ext(numerator // 3, k) if numerator % 3 == 0 else 0


def lucas_triangle_reference(n: int, k: int) -> int:
    # Y(n, k) = C(n, k) + C(n-1, k-1), 0 outside 0 <= k <= n
    return binom_ext(n, k) + binom_ext(n - 1, k - 1)


def q_closed_reference(family: Family, n: int, k: int) -> int:
    if k < 0:
        return 0
    if family is Family.GAMMA:
        return binom_div3(n + k, k) + binom_div3(n + k + 1, k)
    if n < 2:
        coeffs = qpoly_rec(family, n).coeffs
        return coeffs[k] if k < len(coeffs) else 0
    total = 0
    if (n + k + 1) % 3 == 0:
        total += binom_ext((n + k + 1) // 3 - 1, k)
    if (n + k) % 3 == 0:
        total += binom_ext((n + k) // 3 - 1, k - 1)
    if (n + k - 1) % 3 == 0:
        total += lucas_triangle_reference((n + k - 1) // 3, k)
    return total


def assert_row_matches_reference(family: Family, n: int) -> None:
    # every k up to three past the degree, where the closed form must vanish
    degree = poly_degree(family, n)
    row = q_closed_row(family, n, degree + 4)
    assert row == [q_closed_reference(family, n, k) for k in range(degree + 4)], (family, n)
    assert row[degree] != 0 and row[degree + 1:] == [0, 0, 0], (family, n)


@pytest.mark.parametrize("family", list(Family))
def test_closed_row_equals_the_per_entry_reference_to_400(family):
    for n in range(401):
        assert_row_matches_reference(family, n)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(list(Family)), st.integers(0, 3000))
def test_closed_row_equals_the_per_entry_reference_at_sampled_n(family, n):
    assert_row_matches_reference(family, n)


def test_closed_row_is_a_prefix_of_the_longer_row():
    for family in Family:
        for n in (0, 1, 2, 3, 7, 30):
            full = q_closed_row(family, n, 25)
            assert [q_closed_row(family, n, count) for count in range(26)] == [
                full[:count] for count in range(26)
            ]
            assert [q_closed_row(family, n, k + 1)[k] for k in range(25)] == full


def test_closed_row_rejects_a_negative_order_or_count():
    with pytest.raises(ValueError):
        q_closed_row("gamma", -1, 3)
    with pytest.raises(ValueError):
        q_closed_row("omega", 4, -1)
    with pytest.raises(ValueError):
        q_closed_row("delta", 4, 3)


def test_binomial_row_equals_math_comb_to_300():
    for n in range(301):
        assert binomial_row(n) == [comb(n, k) for k in range(n + 1)], n
    with pytest.raises(ValueError):
        binomial_row(-1)


def test_lucas_triangle_row_equals_the_per_entry_reference_to_300():
    for n in range(301):
        row = lucas_triangle_additive_row(n)
        assert row == [lucas_triangle_reference(n, k) for k in range(n + 1)], n
    with pytest.raises(ValueError):
        lucas_triangle_additive_row(-1)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 3000))
def test_binomial_and_lucas_rows_equal_the_references_at_sampled_n(n):
    assert binomial_row(n) == [comb(n, k) for k in range(n + 1)]
    assert lucas_triangle_additive_row(n) == [lucas_triangle_reference(n, k) for k in range(n + 1)]

from __future__ import annotations

import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubefactor.polynomials import (
    _NUMERATOR,
    Family,
    _diagonal,
    _expand_rational,
    _row_misses,
    _shift_add,
    eval_at,
    gf_series,
    gf_terms,
    identity_audit,
    padovan_gf_series,
    poly_degree,
    poly_from_json,
    poly_to_json,
    q_closed_row,
    qpoly_rec,
    qpoly_rows,
)
from cubefactor.sequences import binom_ext, fib, lucas, padovan

# coefficient rows n = 0..8, frozen from the tabulated triangles
TABLE_GAMMA = [
    (1,), (0, 1), (1, 1), (1, 0, 1), (0, 2, 1),
    (1, 2, 0, 1), (1, 0, 3, 1), (0, 3, 3, 0, 1), (1, 3, 0, 4, 1),
]
TABLE_OMEGA = [
    (1,), (0, 1), (1, 1), (0, 2), (1, 1, 1),
    (1, 1, 2), (0, 3, 1, 1), (1, 2, 2, 2), (1, 1, 5, 1, 1),
]


def test_recurrence_polynomials_match_tabulated_rows():
    for n, row in enumerate(TABLE_GAMMA):
        assert qpoly_rec(Family.GAMMA, n).coeffs == row
    for n, row in enumerate(TABLE_OMEGA):
        assert qpoly_rec(Family.OMEGA, n).coeffs == row


def test_qpoly_rec_listed_examples():
    assert qpoly_rec("gamma", 5).coeffs == (1, 2, 0, 1)
    assert qpoly_rec("omega", 4).coeffs == (1, 1, 1)
    assert qpoly_rec("gamma", 0).coeffs == (1,)


def test_qpoly_rec_rejects_bad_input():
    with pytest.raises(ValueError):
        qpoly_rec("gamma", -1)
    with pytest.raises(ValueError):
        qpoly_rec("delta", 3)


def test_closed_form_spot_values():
    assert q_closed_row("gamma", 8, 4)[3] == 4
    assert q_closed_row("omega", 8, 3)[2] == 5
    assert q_closed_row("gamma", 4, 1)[0] == 0


def test_closed_form_delegates_below_omega_validity():
    # the omega formula is only valid from n=2; below that the recurrence rules
    assert q_closed_row("omega", 0, 1)[0] == 1
    assert q_closed_row("omega", 1, 1)[0] == 0
    assert q_closed_row("omega", 1, 2)[1] == 1


def test_closed_form_below_omega_validity_is_the_recurrence_row_zero_padded():
    # count 0, count 1 and a count past the degree: truncated or padded with 0
    for n, row in ((0, [1]), (1, [0, 1])):
        assert list(qpoly_rec("omega", n).coeffs) == row
        assert q_closed_row("omega", n, 0) == []
        assert q_closed_row("omega", n, 1) == row[:1]
        assert q_closed_row("omega", n, 5) == row + [0] * (5 - len(row))


def test_three_routes_agree_to_60():
    for family in Family:
        lo = 0 if family is Family.GAMMA else 2
        series = gf_series(family, 60)
        for n in range(61):
            poly = qpoly_rec(family, n)
            assert series[n] == poly.coeffs, (family, n)
            if n >= lo:  # every k up to two past the degree
                assert q_closed_row(family, n, poly.degree + 3) == [*poly.coeffs, 0, 0], (family, n)


def test_recurrence_and_series_agree_to_1500():
    # one lockstep pass per family over the two streamed routes
    for family in Family:
        for poly, term in zip(islice(qpoly_rows(family), 1501), gf_terms(family)):
            assert term == poly.coeffs, (family, poly.n)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(list(Family)), st.integers(0, 2000))
def test_closed_form_equals_recurrence_at_sampled_n(family, n):
    poly = qpoly_rec(family, n)
    assert q_closed_row(family, n, poly.degree + 2) == [*poly.coeffs, 0]


@pytest.mark.parametrize("family", list(Family))
def test_closed_form_equals_recurrence_at_3000(family):
    # the order the benchmark's poly commands compute, at every k
    poly = qpoly_rec(family, 3000)
    assert q_closed_row(family, 3000, poly.degree + 2) == [*poly.coeffs, 0]


def test_shift_add_pads_either_row():
    assert _shift_add((1,), (1, 2, 3, 4)) == (1, 3, 3, 4)  # plain longer than x * shifted
    assert _shift_add((1, 1, 1), (2,)) == (2, 1, 1, 1)
    assert _shift_add((), (1, 2)) == (1, 2)
    assert _shift_add((1, 2), ()) == (0, 1, 2)
    assert _shift_add((), ()) == (0,)
    assert _shift_add((-1, 0), (0, 1)) == (0,)  # cancels down to the zero row


@settings(max_examples=200, deadline=None)
@given(*[st.lists(st.integers(-3, 3), max_size=6)] * 2)
def test_shift_add_matches_a_per_coefficient_loop(shifted, plain):
    out = [0] * max(len(shifted) + 1, len(plain))
    for i, c in enumerate(shifted):
        out[i + 1] += c
    for i, c in enumerate(plain):
        out[i] += c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    assert _shift_add(shifted, plain) == tuple(out)


def _naive_expansion(numerator, order):
    # R[n][i] = numerator[n][i] + R[n-2][i-1] + R[n-3][i], one coefficient at a
    # time over a fixed width, trailing zeros stripped at the end
    width = order + max(map(len, numerator.values())) + 1
    rows = []
    for n in range(order + 1):
        num = numerator.get(n, [])
        rows.append([
            (num[i] if i < len(num) else 0)
            + (rows[n - 2][i - 1] if n >= 2 and i >= 1 else 0)
            + (rows[n - 3][i] if n >= 3 else 0)
            for i in range(width)
        ])
    terms = []
    for row in rows:
        while len(row) > 1 and row[-1] == 0:
            row = row[:-1]
        terms.append(tuple(row))
    return terms


@pytest.mark.parametrize("numerator", [
    {0: [1], 2: [0, 0, 0, 0, 5]},  # a numerator term longer than the running rows
    {0: [1], 4: [0, 0, -1, 0, 0]},  # y^4 cancels x^2 * y^4 into the zero term
    {0: [1], 1: [0, 3], 6: [-1, 0, 0, -2]},
    _NUMERATOR[Family.OMEGA],  # -(x - 1)^2 at y^3 leaves 2x: trailing zeros cancel
])
def test_expand_rational_matches_a_per_coefficient_reference(numerator):
    assert list(islice(_expand_rational(numerator), 60)) == _naive_expansion(numerator, 59)


def test_recurrence_and_series_hold_bounded_memory():
    # row n holds O(n^2) bits, so keeping every row to 800 takes megabytes;
    # the streamed routes hold three rows or terms at a time
    qpoly_rec("omega", 200)  # warm: a memo of rows 0..200 would not count
    tracemalloc.start()
    try:
        qpoly_rec("omega", 800)
        rec_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for _ in islice(gf_terms("omega"), 801):
            pass
        gf_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec_peak < 1_000_000, rec_peak
    assert gf_peak < 1_000_000, gf_peak


def test_gf_series_small_orders():
    assert gf_series("gamma", 2) == ((1,), (0, 1), (1, 1))
    assert gf_series("omega", 1)[1] == (0, 1)
    assert gf_series("gamma", 0) == ((1,),)


def test_padovan_gf_series():
    assert padovan_gf_series(2) == [1, 1, 1]
    assert padovan_gf_series(5)[-1] == 3
    assert padovan_gf_series(0) == [1]
    assert padovan_gf_series(300) == [padovan(n) for n in range(301)]


def test_eval_at_connects_to_the_three_sequences():
    assert eval_at(qpoly_rec("gamma", 5), 2) == 13 == fib(7)
    assert eval_at(qpoly_rec("omega", 5), 2) == 11 == lucas(5)
    poly = qpoly_rec("gamma", 9)
    assert eval_at(poly, 1) == sum(poly.coeffs)


def test_value_identities_to_200():
    for n in range(201):
        assert eval_at(qpoly_rec("gamma", n), 1) == padovan(n + 1)
        assert eval_at(qpoly_rec("omega", n), 1) == padovan(n + 1)
        assert eval_at(qpoly_rec("gamma", n), 2) == fib(n + 2)
        if n >= 2:
            assert eval_at(qpoly_rec("omega", n), 2) == lucas(n)


def test_degrees_follow_the_tabulated_polynomials():
    for n in range(201):
        assert qpoly_rec("gamma", n).degree == (n + 1) // 2 == poly_degree("gamma", n)
    assert poly_degree("omega", 0) == 0
    assert poly_degree("omega", 1) == 1
    for n in range(2, 201):
        assert qpoly_rec("omega", n).degree == n // 2 == poly_degree("omega", n)


def test_gamma_nonzero_counts_to_200():
    for n in range(201):
        assert qpoly_rec("gamma", n).nonzero_count == (n + 4) // 3


def test_omega_nonzero_counts_agree_across_routes():
    # the three computation routes must agree on the count; acceptance
    # criterion 4 pins its value, floor(n/2) + 1 - [3 | n]
    series = gf_series("omega", 60)
    for n in range(2, 61):
        poly = qpoly_rec("omega", n)
        closed = q_closed_row("omega", n, poly.degree + 1)
        assert sum(1 for c in closed if c) == poly.nonzero_count
        assert sum(1 for c in series[n] if c) == poly.nonzero_count


def test_trailing_coefficient_positive():
    for family in Family:
        for n in range(121):
            coeffs = qpoly_rec(family, n).coeffs
            assert coeffs[-1] > 0
            assert all(c >= 0 for c in coeffs)


def test_gamma_detailed_case_split_to_60():
    for n in range(61):
        for k, value in enumerate(q_closed_row("gamma", n, qpoly_rec("gamma", n).degree + 3)):
            if (n + k) % 3 == 2:
                expected = binom_ext((n + k + 1) // 3, k)
            elif (n + k) % 3 == 0:
                expected = binom_ext((n + k) // 3, k)
            else:
                expected = 0
            assert value == expected, (n, k)


def antidiagonal_sums(family: str, count: int) -> list[int]:
    # sum_k q_k(n-k) for n < count, off one recurrence stream
    rows = [p.coeffs for p in islice(qpoly_rows(family), count)]
    return [sum(rows[n - k][k] for k in range(n + 1) if k < len(rows[n - k])) for n in range(count)]


def test_recurrence_antidiagonal_spot_sums():
    gamma, omega = antidiagonal_sums("gamma", 8), antidiagonal_sums("omega", 8)
    assert gamma[6] == 4
    assert omega[7] == 6
    assert gamma[7] == 0


def test_recurrence_antidiagonal_sums_case_split_to_120():
    for n, s in enumerate(antidiagonal_sums("gamma", 121)):
        if n % 3 == 2:
            assert s == 2 ** ((n + 1) // 3)
        elif n % 3 == 0:
            assert s == 2 ** (n // 3)
        else:
            assert s == 0
    for n, s in enumerate(antidiagonal_sums("omega", 121)[3:], start=3):
        if n % 3 == 2:
            assert s == 2 ** ((n + 1) // 3 - 1)
        elif n % 3 == 0:
            assert s == 2 ** (n // 3 - 1)
        else:
            assert s == 3 * 2 ** ((n - 1) // 3 - 1)


def test_audit_gamma_passes_route_agreement():
    by_name = {e.name: e for e in identity_audit("gamma", 30)}
    assert by_name["gamma closed-form coefficients equal recurrence"].status == "PASS"
    assert by_name["gamma series-expansion terms equal recurrence"].status == "PASS"
    skew = by_name["gamma skew-diagonal sum vs fibonacci index"]
    assert skew.status == "INFO"
    assert "matching shifts [1]" in skew.detail


def test_audit_omega_entries():
    by_name = {e.name: e for e in identity_audit("omega", 30)}
    assert by_name["omega eval-at-2 equals lucas(n)"].status == "PASS"
    shifted = by_name["omega shifted-index values q_k(n+2k), dual reading"]
    assert shifted.status == "INFO"
    assert "substituted reading matches: True" in shifted.detail
    # known discrepancy: the floor((n+5)/3) count prediction fails from n=8
    count = by_name["omega nonzero-count equals floor((n+5)/3)"]
    assert count.status == "FAIL"
    assert "n=8" in count.detail


def test_row_misses_name_the_first_differing_entry_and_keep_every_tail():
    rows = [
        (3, [1, 2], [1, 2]),
        (4, [1, 2, 3], [1, 5, 7]),
        (5, [1, 2], [1, 2, 9]),
        (6, [1, 2, 0], [1, 2]),
    ]
    assert list(_row_misses(rows)) == [
        "4: expected 2, got 5", "5: expected None, got 9", "6: expected 0, got None",
    ]


def test_diagonals_equal_the_extended_binomials():
    # the audit's shifted-index predictions read these C(m+k, k) rows
    for m in range(-3, 60):
        assert _diagonal(m, 40) == [binom_ext(m + k, k) for k in range(40)], m
    assert _diagonal(5, 0) == [] and _diagonal(5, 1) == [1]


def test_audit_rejects_small_range_and_is_deterministic():
    with pytest.raises(ValueError):
        identity_audit("gamma", 4)
    a = identity_audit("gamma", 25)
    b = identity_audit("gamma", 25)
    assert [e.line() for e in a] == [e.line() for e in b]


def test_poly_json_exact_format_and_round_trip():
    poly = qpoly_rec("gamma", 5)
    text = poly_to_json(poly)
    assert text == '{"family":"gamma","n":5,"coeffs":["1","2","0","1"]}'
    back = poly_from_json(text)
    assert back == poly


@pytest.mark.parametrize(
    "text",
    [
        '{"family":"gamma"}',
        "[]",
        '{"family":"gamma","n":1,"coeffs":5}',
        '{"family":"gamma","n":true,"coeffs":["0","1"]}',
        '{"family":"gamma","n":1,"coeffs":["0",true]}',
        '{"family":"gamma","n":1,"coeffs":["1_0"]}',
        '{"family":"gamma","n":1,"coeffs":[" 5"]}',
        '{"family":"gamma","n":1,"coeffs":["\u0663"]}',
        '{"family":"gamma","n":1,"coeffs":["+2"]}',
        '{"family":"gamma","n":-3,"coeffs":["1"]}',
        '{"family":"gamma","n":3,"coeffs":[]}',
        '{"family":"gamma","n":3,"coeffs":["1","1","0"]}',
    ],
)
def test_poly_json_rejects_malformed_shapes(text):
    with pytest.raises(ValueError, match="malformed"):
        poly_from_json(text)

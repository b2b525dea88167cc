from __future__ import annotations

from itertools import islice

from cubefactor.audit import oracle_audit, sequence_audit
from cubefactor.factors import structural_factor
from cubefactor.graphs import build_graph, expected_vertex_count, member_coordinates
from cubefactor.polynomials import gf_series, padovan_gf_series, poly_degree, q_closed_row, qpoly_rec
from cubefactor.sequences import (
    _SEEDS,
    _terms,
    binom_ext,
    binomial_row,
    fib,
    lucas,
    lucas_triangle_additive_row,
    lucas_triangle_row,
    lucas_triangle_rows,
    padovan,
    padovan_closed,
)


def test_fibonacci_base_and_small_values():
    assert fib(0) == 0
    assert fib(1) == 1
    assert fib(7) == 13


def test_lucas_base_and_small_values():
    assert lucas(0) == 2
    assert lucas(1) == 1
    assert lucas(5) == 11


def test_padovan_base_and_small_values():
    assert padovan(2) == 1
    assert padovan(5) == 3
    assert padovan(9) == 9


# every public route that takes an order, index or count, called with -1,
# and the name its refusal message gives
REFUSALS = {
    "fib": (lambda: fib(-1), "index"),
    "lucas": (lambda: lucas(-1), "index"),
    "padovan": (lambda: padovan(-1), "index"),
    "padovan_closed": (lambda: padovan_closed(-1), "index"),
    "binomial_row": (lambda: binomial_row(-1), "index"),
    "lucas_triangle_additive_row": (lambda: lucas_triangle_additive_row(-1), "index"),
    "lucas_triangle_row": (lambda: lucas_triangle_row(-1), "index"),
    "qpoly_rec": (lambda: qpoly_rec("gamma", -1), "n"),
    "poly_degree": (lambda: poly_degree("omega", -1), "n"),
    "q_closed_row n": (lambda: q_closed_row("gamma", -1, 3), "n"),
    "q_closed_row count": (lambda: q_closed_row("omega", 5, -1), "count"),
    "gf_series": (lambda: gf_series("gamma", -1), "order"),
    "padovan_gf_series": (lambda: padovan_gf_series(-1), "order"),
    "build_graph": (lambda: build_graph("omega", -1), "n"),
    "member_coordinates": (lambda: member_coordinates("gamma", -1), "n"),
    "expected_vertex_count": (lambda: expected_vertex_count("omega", -1), "n"),
    "structural_factor": (lambda: structural_factor("gamma", -1), "n"),
    "sequence_audit": (lambda: sequence_audit(-1), "max_n"),
    "oracle_audit": (lambda: oracle_audit("gamma", -1), "max_n"),
}


def _refusal(call) -> str | None:
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def test_negative_index_rejected():
    got = {route: _refusal(call) for route, (call, _) in REFUSALS.items()}
    assert got == {route: f"{name} must be non-negative, got -1" for route, (_, name) in REFUSALS.items()}


def test_padovan_closed_hand_evaluated_cases():
    # n=5: only j=2 contributes, C(3,1); n=6: C(3,2) + C(4,0)
    assert padovan_closed(5) == 3
    assert padovan_closed(6) == 4
    assert padovan_closed(0) == 1


def test_padovan_closed_equals_recurrence_to_500():
    assert all(padovan_closed(n) == padovan(n) for n in range(501))


def test_fibonacci_cassini_identity_to_200():
    for n in range(1, 201):
        assert fib(n + 1) * fib(n - 1) - fib(n) ** 2 == (-1) ** n


def test_binom_ext_special_and_standard_values():
    assert binom_ext(-1, -1) == 1
    assert binom_ext(4, 2) == 6
    assert binom_ext(0, 0) == 1


def test_binom_ext_zero_outside_support():
    for n in range(-6, 9):
        for k in range(-6, 9):
            if (n, k) == (-1, -1):
                continue
            if 0 <= k <= n:
                continue
            assert binom_ext(n, k) == 0, (n, k)


def test_lucas_triangle_tabulated_entries():
    assert lucas_triangle_additive_row(0)[0] == 2
    assert lucas_triangle_additive_row(4)[2] == 9
    assert lucas_triangle_additive_row(5)[3] == 16
    assert lucas_triangle_row(4) == [1, 5, 9, 7, 2]
    assert lucas_triangle_row(5) == [1, 6, 14, 16, 9, 2]


def test_lucas_triangle_formula_matches_recurrence_to_64():
    for n in range(65):
        row = lucas_triangle_row(n)
        assert len(row) == n + 1
        assert row == lucas_triangle_additive_row(n)
        if n >= 1:
            assert row[0] == 1 and row[-1] == 2
            assert sum(row) == 3 * 2 ** (n - 1)


def test_lucas_triangle_rows_stream_rows_a_caller_may_change():
    rows = lucas_triangle_rows()
    for n in range(12):
        row = next(rows)
        assert row == lucas_triangle_additive_row(n) == lucas_triangle_row(n)
        row[:] = [0] * len(row)  # the generator must not read it again


def test_sequence_streams_match_the_single_terms_and_second_routes():
    streams = {name: list(islice(_terms(name), 301)) for name in _SEEDS}
    fibs, lucases, padovans = streams["fibonacci"], streams["lucas"], streams["padovan"]
    assert fibs == [fib(n) for n in range(301)]
    assert lucases == [lucas(n) for n in range(301)]
    assert padovans == [padovan(n) for n in range(301)] == [padovan_closed(n) for n in range(301)]
    assert all(lucases[n] == fibs[n - 1] + fibs[n + 1] for n in range(1, 300))

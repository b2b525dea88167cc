"""Acceptance suite: each test enforces one numbered criterion at its stated
tolerance and runtime budget and prints a single `acceptance N: PASS/FAIL`
line (visible with `pytest -s` or on failure).

Criterion 4 is split per family. Its omega half asserts the exact nonzero
count floor(n/2) + 1 - [3 | n] at every 4 <= n <= 200, derived from the
vanishing rule of the closed form and checked by two routes (the recurrence
and the closed-form coefficients). It also pins where the prediction
floor((n+5)/3), which the identity audit still reports as a FAIL, first
breaks: n = 8, predicted 4 against 5. See README, section "Known
discrepancy".
"""

from __future__ import annotations

import time
from itertools import islice

from cubefactor import cli
from cubefactor.factors import (
    FactorProfile,
    exact_min_factor,
    greedy_layered_factor,
    structural_factor,
    verify_factor,
)
from cubefactor.graphs import build_graph, custom_graph, find_isomorphism
from cubefactor.polynomials import (
    Family,
    eval_at,
    gf_series,
    identity_audit,
    q_closed_row,
    qpoly_rec,
    qpoly_rows,
)
from cubefactor.sequences import fib, lucas, padovan, padovan_closed

TABLE_GAMMA_9 = (
    "1\n0 1\n1 1\n1 0 1\n0 2 1\n1 2 0 1\n1 0 3 1\n0 3 3 0 1\n1 3 0 4 1\n"
)
TABLE_OMEGA_9 = (
    "1\n0 1\n1 1\n0 2\n1 1 1\n1 1 2\n0 3 1 1\n1 2 2 2\n1 1 5 1 1\n"
)
TRIANGLE_6 = "2\n1 2\n1 3 2\n1 4 5 2\n1 5 9 7 2\n1 6 14 16 9 2\n"


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {criterion}: {status}{suffix}")
    assert ok, f"acceptance {criterion} failed{suffix}"


def elapsed_since(t0: float) -> float:
    return time.perf_counter() - t0


def test_criterion_1_table_reproduction(capsys):
    t0 = time.perf_counter()
    assert cli.run(["table", "--family", "gamma", "--rows", "9"]) == 0
    gamma_out = capsys.readouterr().out
    assert cli.run(["table", "--family", "omega", "--rows", "9"]) == 0
    omega_out = capsys.readouterr().out
    assert cli.run(["triangle", "--rows", "6"]) == 0
    triangle_out = capsys.readouterr().out
    runtime = elapsed_since(t0)
    with capsys.disabled():
        report(
            "1 (table reproduction)",
            gamma_out == TABLE_GAMMA_9
            and omega_out == TABLE_OMEGA_9
            and triangle_out == TRIANGLE_6
            and runtime < 1.0,
            f"runtime {runtime:.2f}s",
        )


def test_criterion_2_three_way_polynomial_agreement():
    t0 = time.perf_counter()
    ok = True
    first_bad = None
    for family in Family:
        series = gf_series(family, 60)
        lo = 0 if family is Family.GAMMA else 2
        for n in range(61):
            poly = qpoly_rec(family, n)
            if series[n] != poly.coeffs:
                ok, first_bad = False, (family.value, n, "gf")
                break
            if n >= lo and q_closed_row(family, n, poly.degree + 2) != [*poly.coeffs, 0]:
                ok, first_bad = False, (family.value, n, "closed")
                break
        if not ok:
            break
    runtime = elapsed_since(t0)
    report(
        "2 (three-way polynomial agreement, n<=60)",
        ok and runtime < 5.0,
        f"runtime {runtime:.2f}s" + (f", first mismatch {first_bad}" if first_bad else ""),
    )


def test_criterion_3_sequence_identities():
    t0 = time.perf_counter()
    ok = all(
        eval_at(qpoly_rec(family, n), 1) == padovan(n + 1)
        for family in Family
        for n in range(201)
    )
    ok = ok and all(eval_at(qpoly_rec("gamma", n), 2) == fib(n + 2) for n in range(201))
    ok = ok and all(eval_at(qpoly_rec("omega", n), 2) == lucas(n) for n in range(2, 201))
    ok = ok and all(padovan_closed(n) == padovan(n) for n in range(501))
    runtime = elapsed_since(t0)
    report("3 (sequence identities)", ok and runtime < 5.0, f"runtime {runtime:.2f}s")


def test_criterion_4_gamma_structural_counts():
    t0 = time.perf_counter()
    counts_ok = all(
        qpoly_rec("gamma", n).nonzero_count == (n + 4) // 3 for n in range(201)
    )
    runtime = elapsed_since(t0)
    report(
        "4 (gamma nonzero counts, n<=200)",
        counts_ok and runtime < 1.0,
        f"runtime {runtime:.2f}s",
    )


def omega_nonzero_count(n: int) -> int:
    # for n >= 2 exactly one term of q_closed_row applies at each k, and it is
    # nonzero for every 0 <= k <= floor(n/2) except k = 0 when 3 | n, where
    # it is C(n/3 - 1, -1) = 0
    return n // 2 + 1 - (1 if n % 3 == 0 else 0)


def test_criterion_4_omega_structural_counts():
    # the exact count at every n, by the recurrence and by the closed-form
    # coefficients; then the prediction floor((n+5)/3) is recorded the way
    # criterion 7 records its discrepancies: it holds for n = 4..7 and first
    # fails at n = 8 (predicted 4, true 5)
    t0 = time.perf_counter()
    wrong = []
    for n in range(4, 201):
        expected = omega_nonzero_count(n)
        rec = qpoly_rec("omega", n).nonzero_count
        closed = sum(1 for c in q_closed_row("omega", n, n // 2 + 1) if c)
        if not rec == closed == expected:
            wrong.append((n, expected, rec, closed))
    prediction_misses = [
        (n, (n + 5) // 3, omega_nonzero_count(n))
        for n in range(4, 201)
        if (n + 5) // 3 != omega_nonzero_count(n)
    ]
    runtime = elapsed_since(t0)
    detail = f"runtime {runtime:.2f}s"
    if wrong:
        n, expected, rec, closed = wrong[0]
        detail += (
            f"; first wrong count at n={n}: expected {expected}, "
            f"recurrence {rec}, closed form {closed}"
        )
    if prediction_misses:
        n, predicted, actual = prediction_misses[0]
        detail += f"; floor((n+5)/3) first fails at n={n}: predicted {predicted}, true {actual}"
    report(
        "4 (omega nonzero counts, n<=200)",
        not wrong and prediction_misses[:1] == [(8, 4, 5)] and runtime < 1.0,
        detail,
    )


def test_criterion_4_degrees():
    t0 = time.perf_counter()
    ok = all(qpoly_rec("gamma", n).degree == (n + 1) // 2 for n in range(201))
    ok = ok and all(qpoly_rec("omega", n).degree == n // 2 for n in range(2, 201))
    runtime = elapsed_since(t0)
    report("4 (degrees, n<=200)", ok and runtime < 1.0, f"runtime {runtime:.2f}s")


def test_criterion_5_graph_level_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for family in Family:
        for n in range(9):
            g = build_graph(family, n)
            poly = qpoly_rec(family, n)
            exact = exact_min_factor(g)
            greedy = greedy_layered_factor(g)
            structural = structural_factor(family, n, g)
            if exact.part_count != padovan(n + 1):
                ok, detail = False, f"exact count off at {family.value} n={n}"
                break
            if greedy.profile().counts != poly.coeffs:
                ok, detail = False, f"greedy profile off at {family.value} n={n}"
                break
            if structural.profile().counts != poly.coeffs:
                ok, detail = False, f"structural profile off at {family.value} n={n}"
                break
            if not all(
                isinstance(verify_factor(g, f), FactorProfile)
                for f in (exact, greedy, structural)
            ):
                ok, detail = False, f"verification failed at {family.value} n={n}"
                break
        if not ok:
            break
    # spot value named in the criterion: 9 parts at gamma n=8
    ok = ok and exact_min_factor(build_graph("gamma", 8)).part_count == 9
    runtime = elapsed_since(t0)
    report(
        "5 (oracle equivalence, n<=8)",
        ok and runtime < 300.0,
        f"runtime {runtime:.2f}s" + (f", {detail}" if detail else ""),
    )


def test_criterion_6_graph_cardinalities_and_omega4_isomorphism():
    t0 = time.perf_counter()
    ok = all(build_graph("gamma", n).vertex_count == fib(n + 2) for n in range(16))
    ok = ok and all(build_graph("omega", n).vertex_count == lucas(n) for n in range(2, 16))
    figure = custom_graph(
        ["a0", "a1", "a2", "b0", "b1", "b2", "p"],
        [
            ("a0", "a1"), ("a1", "a2"), ("b0", "b1"), ("b1", "b2"),
            ("a0", "b0"), ("a1", "b1"), ("a2", "b2"), ("a2", "p"),
        ],
    )
    iso = find_isomorphism(build_graph("omega", 4), figure)
    ok = ok and iso is not None
    runtime = elapsed_since(t0)
    report(
        "6 (graph cardinalities + grid-plus-pendant isomorphism)",
        ok and runtime < 10.0,
        f"runtime {runtime:.2f}s",
    )


def test_criterion_7_diagonal_sum_predictions():
    t0 = time.perf_counter()
    ok = True
    # anti-diagonal sums sum_k q_k(n-k), off one recurrence stream per family
    sums = {}
    for family in ("gamma", "omega"):
        rows = [p.coeffs for p in islice(qpoly_rows(family), 121)]
        sums[family] = [
            sum(rows[n - k][k] for k in range(n + 1) if k < len(rows[n - k])) for n in range(121)
        ]
    for n in range(3, 121):
        gamma_sum = sums["gamma"][n]
        if n % 3 == 2:
            ok = ok and gamma_sum == 2 ** ((n + 1) // 3)
        elif n % 3 == 0:
            ok = ok and gamma_sum == 2 ** (n // 3)
        else:
            ok = ok and gamma_sum == 0
        omega_sum = sums["omega"][n]
        if n % 3 == 2:
            ok = ok and omega_sum == 2 ** ((n + 1) // 3 - 1)
        elif n % 3 == 0:
            ok = ok and omega_sum == 2 ** (n // 3 - 1)
        else:
            ok = ok and omega_sum == 3 * 2 ** ((n - 1) // 3 - 1)

    # shift-scan audits for the two documented discrepancies: they must run,
    # come back as INFO (not FAIL), and produce a stable report
    gamma_first = identity_audit("gamma", 40)
    gamma_second = identity_audit("gamma", 40)
    omega_first = identity_audit("omega", 40)
    omega_second = identity_audit("omega", 40)
    stable = (
        [e.line() for e in gamma_first] == [e.line() for e in gamma_second]
        and [e.line() for e in omega_first] == [e.line() for e in omega_second]
    )
    skew = next(e for e in gamma_first if e.name == "gamma skew-diagonal sum vs fibonacci index")
    shifted = next(
        e
        for e in omega_first
        if e.name == "omega shifted-index values q_k(n+2k), dual reading"
    )
    info_ok = skew.status == "INFO" and shifted.status == "INFO"
    reported = "matching shifts [1]" in skew.detail and "substituted reading matches: True" in shifted.detail
    runtime = elapsed_since(t0)
    report(
        "7 (diagonal-sum predictions, n<=120)",
        ok and stable and info_ok and reported and runtime < 5.0,
        f"runtime {runtime:.2f}s",
    )


def test_criterion_8_verify_determinism(capsys):
    assert cli.run(["verify", "--suite", "all", "--max-n", "8", "--offline"]) in (0, 1)
    first = capsys.readouterr().out
    assert cli.run(["verify", "--suite", "all", "--max-n", "8", "--offline"]) in (0, 1)
    second = capsys.readouterr().out
    with capsys.disabled():
        report(
            "8 (verify determinism)",
            first == second and len(first) > 0,
            f"{len(first.splitlines())} report lines",
        )

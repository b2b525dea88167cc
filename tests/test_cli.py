from __future__ import annotations

import json
import sys

import pytest

from cubefactor import audit, cli, factors, sequences
from cubefactor.factors import CubeFactor, factor_from_json, verify_factor
from cubefactor.graphs import build_graph
from cubefactor.sequences import fib

TABLE_GAMMA_9 = (
    "1\n"
    "0 1\n"
    "1 1\n"
    "1 0 1\n"
    "0 2 1\n"
    "1 2 0 1\n"
    "1 0 3 1\n"
    "0 3 3 0 1\n"
    "1 3 0 4 1\n"
)

TABLE_OMEGA_9 = (
    "1\n"
    "0 1\n"
    "1 1\n"
    "0 2\n"
    "1 1 1\n"
    "1 1 2\n"
    "0 3 1 1\n"
    "1 2 2 2\n"
    "1 1 5 1 1\n"
)

TRIANGLE_6 = (
    "2\n"
    "1 2\n"
    "1 3 2\n"
    "1 4 5 2\n"
    "1 5 9 7 2\n"
    "1 6 14 16 9 2\n"
)


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_gamma_golden(capsys):
    code, out, _ = run(capsys, "table", "--family", "gamma", "--rows", "9")
    assert code == 0 and out == TABLE_GAMMA_9


def test_table_omega_golden(capsys):
    code, out, _ = run(capsys, "table", "--family", "omega", "--rows", "9")
    assert code == 0 and out == TABLE_OMEGA_9


def test_table_csv_layout(capsys):
    code, out, _ = run(capsys, "table", "--family", "gamma", "--rows", "3", "--csv")
    assert code == 0 and out == "1\n0,1\n1,1\n"
    code, out, _ = run(capsys, "table", "--family", "omega", "--rows", "0", "--csv")
    assert code == 0 and out == ""


def test_triangle_golden(capsys):
    code, out, _ = run(capsys, "triangle", "--rows", "6")
    assert code == 0 and out == TRIANGLE_6


def test_poly_methods_and_formats(capsys):
    code, out, _ = run(capsys, "poly", "--family", "gamma", "--n", "5")
    assert code == 0 and out == "1 2 0 1\n"
    code, out, _ = run(capsys, "poly", "--family", "gamma", "--n", "5", "--json")
    assert code == 0
    assert out == '{"family":"gamma","n":5,"coeffs":["1","2","0","1"]}\n'
    for method in ("rec", "closed", "gf"):
        code, out, _ = run(
            capsys, "poly", "--family", "omega", "--n", "8", "--method", method, "--csv"
        )
        assert code == 0 and out == "1,1,5,1,1\n"


def test_seq_terms(capsys):
    code, out, _ = run(capsys, "seq", "--name", "padovan", "--count", "6")
    assert code == 0 and out.split() == ["1", "1", "1", "2", "2", "3"]
    code, out, _ = run(capsys, "seq", "--name", "lucas", "--count", "3")
    assert code == 0 and out.split() == ["2", "1", "3"]


def test_seq_long_empty_and_negative_counts(capsys):
    code, out, _ = run(capsys, "seq", "--name", "fibonacci", "--count", "3000")
    terms = [int(t) for t in out.split()]
    assert code == 0 and len(terms) == 3000 and terms[-1] == fib(2999)
    assert all(terms[n + 2] == terms[n] + terms[n + 1] for n in range(2998))
    assert run(capsys, "seq", "--name", "padovan", "--count", "0")[:2] == (0, "")
    code, out, _ = run(capsys, "seq", "--name", "padovan", "--count", "-1")
    assert code == 2 and out == ""


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="Python before 3.10.7 has no digit limit"
)
def test_seq_prints_integers_past_the_digit_limit_and_restores_it(capsys):
    # fib(3099) has 648 digits; 640 is the lowest limit Python accepts
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, _ = run(capsys, "seq", "--name", "fibonacci", "--count", "3100")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    last = out.splitlines()[-1]
    assert code == 0 and len(last) == 648 and int(last) == fib(3099)


def test_commands_run_on_a_python_without_a_digit_limit(capsys, monkeypatch):
    # Python 3.10.0 to 3.10.6 have neither the limit nor its setter
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    assert run(capsys, "seq", "--name", "lucas", "--count", "3") == (0, "2\n1\n3\n", "")


def test_graph_exports(capsys):
    code, out, _ = run(capsys, "graph", "--family", "gamma", "--n", "1", "--emit", "edgelist")
    assert code == 0 and out == "0 1\n"
    code, out, _ = run(capsys, "graph", "--family", "gamma", "--n", "2", "--emit", "dot")
    assert code == 0
    assert out.count("--") == 2
    assert out.count(";") == 5  # 3 nodes + 2 edges


def test_factor_text_and_json(capsys):
    code, out, _ = run(capsys, "factor", "--family", "gamma", "--n", "3", "--method", "exact")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "parts: 2"
    assert lines[1] == "profile: 1 0 1"

    code, out, _ = run(
        capsys, "factor", "--family", "omega", "--n", "5", "--method", "structural", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["profile"] == ["1", "1", "2"]
    g = build_graph("omega", 5)
    factor = factor_from_json(g, out)
    assert verify_factor(g, factor).counts == (1, 1, 2)


# orders past 64 vertices: the construction cap is the one bound on the
# graphs the solvers are handed
@pytest.mark.parametrize(
    "family, n, method, parts", [("gamma", 13, "exact", 37), ("omega", 16, "greedy", 86)]
)
def test_factor_runs_the_solvers_on_every_built_order(capsys, family, n, method, parts):
    code, out, err = run(capsys, "factor", "--family", family, "--n", str(n), "--method", method)
    assert code == 0 and err == ""
    assert out.splitlines()[0] == f"parts: {parts}"


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "table", "--family", "gamma", "--rows", "9", "--bogus")
    assert code == 2
    code, _, _ = run(capsys, "poly", "--family", "delta", "--n", "1")
    assert code == 2
    code, _, err = run(capsys, "graph", "--family", "gamma", "--n", "17", "--emit", "dot")
    assert code == 2 and "cap" in err
    code, _, _ = run(capsys, "verify", "--suite", "all", "--max-n", "4")
    assert code == 2
    rows = "error: --rows must be non-negative\n"
    assert run(capsys, "table", "--family", "gamma", "--rows", "-1") == (2, "", rows)
    assert run(capsys, "triangle", "--rows", "-1") == (2, "", rows)
    code, out, err = run(capsys, "poly", "--family", "omega", "--method", "gf", "--n", "-1")
    assert (code, out, err) == (2, "", "error: order must be non-negative, got -1\n")
    assert run(capsys, "seq", "--name", "padovan", "--count", "-1") == (2, "", "error: --count must be non-negative\n")
    negative_n = (2, "", "error: n must be non-negative, got -1\n")
    for method in ("rec", "closed"):
        assert run(capsys, "poly", "--family", "gamma", "--method", method, "--n", "-1") == negative_n
    assert run(capsys, "factor", "--family", "omega", "--n", "-1", "--method", "exact") == negative_n


def test_factor_exits_1_when_the_factor_fails_verification(capsys, monkeypatch):
    monkeypatch.setattr(factors, "exact_min_factor", lambda g: CubeFactor(()))
    code, out, err = run(capsys, "factor", "--family", "gamma", "--n", "2", "--method", "exact")
    assert (code, out) == (1, "")
    assert err == "error: produced factor failed verification: vertex '00' is uncovered\n"


def test_verify_oracle_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-n", "5")
    assert code == 0
    assert "0 FAIL" in out


def test_verify_identities_reports_known_discrepancy(capsys):
    # the floor((n+5)/3) nonzero-count prediction fails from n=8 (see README);
    # the audit surfaces it as the suite's single FAIL
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--max-n", "8")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1
    assert "omega nonzero-count" in fails[0]


def test_oeis_offline_cold_cache_exit_code(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CUBEFACTOR_CACHE", str(tmp_path))
    code, _, err = run(capsys, "oeis", "--id", "A000931", "--against", "padovan", "--offline")
    assert code == 3
    assert "cache" in err


def test_oeis_rejects_an_id_with_no_digits(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CUBEFACTOR_CACHE", str(tmp_path))
    code, out, err = run(capsys, "oeis", "--id", "", "--against", "padovan", "--offline")
    assert code == 2
    assert out == ""
    assert "not an OEIS id" in err


def test_oeis_scan_against_cached_fixture(capsys, tmp_path):
    terms = [1, 0, 0]
    while len(terms) < 140:
        terms.append(terms[-2] + terms[-3])
    (tmp_path / "A000931.txt").write_text(
        "".join(f"{i} {t}\n" for i, t in enumerate(terms)), encoding="utf-8"
    )
    code, out, _ = run(
        capsys, "oeis", "--id", "A000931", "--against", "padovan",
        "--offline", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert "best match at shift +5" in out


def test_oeis_exits_1_without_an_overlap(capsys, tmp_path):
    # one term at index 1000, far past the 120 local terms at every shift
    (tmp_path / "A000931.txt").write_text("1000 5\n", encoding="utf-8")
    code, out, err = run(
        capsys, "oeis", "--id", "A000931", "--against", "padovan",
        "--offline", "--cache-dir", str(tmp_path),
    )
    assert (code, out) == (1, "")
    assert err == "error: no overlap with A000931 at any shift in [-5,5]\n"


def test_oeis_exits_1_without_a_matching_shift(capsys, tmp_path):
    (tmp_path / "A000931.txt").write_text("".join(f"{i} 7\n" for i in range(140)), encoding="utf-8")
    code, out, err = run(
        capsys, "oeis", "--id", "A000931", "--against", "padovan",
        "--offline", "--cache-dir", str(tmp_path),
    )
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert len(lines) == 12 and all(" mismatch at index " in line for line in lines[:11])
    assert lines[-1] == "result: no matching shift"


def test_oeis_audit_fails_a_bfile_that_matches_at_no_shift(tmp_path, monkeypatch):
    monkeypatch.setenv("CUBEFACTOR_CACHE", str(tmp_path))
    (tmp_path / "A000931.txt").write_text("".join(f"{i} 7\n" for i in range(140)), encoding="utf-8")
    entries = audit.oeis_audit(offline=True)
    assert entries[0].line() == "FAIL oeis A000931 vs padovan: no full-overlap match at any shift in [-5,5]"
    assert [e.status for e in entries[1:]] == ["INFO"] * 3


def test_oeis_malformed_cache_names_the_file(capsys, tmp_path):
    path = tmp_path / "A000931.txt"
    path.write_text("0 1\n1 0\n3 0\n", encoding="utf-8")
    code, out, err = run(
        capsys, "oeis", "--id", "A000931", "--against", "padovan",
        "--offline", "--cache-dir", str(tmp_path),
    )
    assert code == 3 and out == ""
    assert err == f"error: cached b-file {path} is malformed: line 3: index 3, expected 2 (gap)\n"


def test_verify_reports_a_malformed_cached_bfile_apart_from_a_missing_one(
    capsys, tmp_path, monkeypatch
):
    monkeypatch.setenv("CUBEFACTOR_CACHE", str(tmp_path))
    path = tmp_path / "A000931.txt"
    path.write_text("0 1\n1 0\n3 0\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "5", "--offline")
    assert code == 0
    oeis_lines = [line for line in out.splitlines() if line.startswith("INFO oeis ")]
    assert oeis_lines[0] == (
        f"INFO oeis A000931 vs padovan: cached b-file {path} is malformed: "
        "line 3: index 3, expected 2 (gap); skipped"
    )
    assert all(line.endswith(": not available locally; skipped") for line in oeis_lines[1:])
    assert len(oeis_lines) == 4


def test_verify_oracle_names_the_orders_it_skips(capsys):
    # every order up to the construction cap is built and handed to the
    # solvers, so max-n 9 skips none
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-n", "9")
    assert code == 0
    assert "orders skipped" not in out
    lines = out.splitlines()
    for fam in ("gamma", "omega"):
        assert f"PASS {fam} exact-min part count equals padovan(n+1): [n=0..9]" in lines


def test_oracle_audit_names_the_construction_cap(monkeypatch):
    from cubefactor import graphs
    from cubefactor.audit import oracle_audit

    # the audit reads the cap at call time; a cap of 10 keeps the run short,
    # and the max-16 golden's ranges pin the real one
    monkeypatch.setattr(graphs, "DEFAULT_MAX_N", 10)
    entry = oracle_audit("omega", 11)[-1]
    assert entry.line() == (
        "INFO omega orders skipped: graphs skip n=11..11 (over the construction cap n=10)"
    )


@pytest.mark.parametrize("max_n", [-1, -3])
def test_sequence_audit_rejects_a_negative_max_n(max_n):
    from cubefactor.audit import sequence_audit

    with pytest.raises(ValueError, match=f"^max_n must be non-negative, got {max_n}$"):
        sequence_audit(max_n)


def test_verify_identities_reads_each_sequence_once(capsys):
    # count the steps of every fibonacci / lucas / padovan stream: one
    # stream per sequence and suite keeps them linear in --max-n
    steps = 0

    def count_steps(frame, event, arg):
        nonlocal steps
        if event == "call" and frame.f_code is sequences._terms.__code__:
            steps += 1

    sys.setprofile(count_steps)
    try:
        code = cli.run(["verify", "--suite", "identities", "--max-n", "120"])
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert code == 1
    assert steps <= 10 * 120

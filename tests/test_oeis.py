from __future__ import annotations

import os
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from cubefactor.oeis import (
    BFileError,
    FetchError,
    SequenceRecord,
    best_match,
    compare,
    fetch_bfile,
    parse_bfile,
    render_bfile,
    scan_shifts,
)
from cubefactor.sequences import fib, lucas_triangle_row, padovan

ROOT = Path(__file__).resolve().parents[1]


def a000931_fixture(count: int = 140) -> list[int]:
    # independent seed a(0)=1, a(1)=a(2)=0, then the same recurrence
    terms = [1, 0, 0]
    while len(terms) < count:
        terms.append(terms[-2] + terms[-3])
    return terms[:count]


# Lucas triangle read by rows, frozen from the first six tabulated rows
A029635_HEAD = [2, 1, 2, 1, 3, 2, 1, 4, 5, 2, 1, 5, 9, 7, 2, 1, 6, 14, 16, 9, 2]


def test_parse_basic():
    record = parse_bfile("0 1\n1 2\n")
    assert record.offset == 0 and record.terms == (1, 2)


def test_parse_with_comment_and_nonzero_offset():
    record = parse_bfile("# comment\n5 8\n6 13\n")
    assert record.offset == 5 and record.terms == (8, 13)


def test_parse_gap_and_malformed_lines():
    with pytest.raises(BFileError, match="gap"):
        parse_bfile("0 1\n2 3\n")
    with pytest.raises(BFileError, match="line 2"):
        parse_bfile("0 1\n1 2 3\n")
    with pytest.raises(BFileError, match="line 1"):
        parse_bfile("zero one\n")
    # int() alone would read these as 10, 3, offset 1 and 5; render_bfile
    # writes none of them
    for text in ("0 1_0\n", "0 \u0663\n", "\u0661 5\n", "0 +5\n"):
        with pytest.raises(BFileError, match="line 1: non-integer field"):
            parse_bfile(text)
    with pytest.raises(BFileError):
        parse_bfile("# nothing but comments\n")


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="Python before 3.10.7 has no digit limit"
)
def test_parse_bounds_a_field_at_4300_digits_with_the_limit_lifted():
    assert parse_bfile("0 " + "9" * 4300 + "\n").terms == (10**4300 - 1,)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as while a CLI command runs
    try:
        assert parse_bfile("0 -" + "9" * 4300 + "\n").terms == (1 - 10**4300,)
        for field in ("9" * 4301, "-" + "9" * 4301):
            with pytest.raises(BFileError, match="line 1: non-integer field"):
                parse_bfile(f"0 {field}\n")
    finally:
        sys.set_int_max_str_digits(limit)


def test_parse_splits_only_on_newlines_and_ascii_blanks():
    # str.splitlines, str.strip and str.split would accept every one of these
    for text in ("0 5\x1c1 7\x852 9\n", "0 5\u20281 7\n", "0 5\r1 7\n", "0\u20035\n", "0 5\u3000\n"):
        with pytest.raises(BFileError, match="line 1"):
            parse_bfile(text)
    assert parse_bfile("# crlf\r\n0 5\r\n1\t 7 \r\n").terms == (5, 7)


def test_render_parse_round_trip():
    record = SequenceRecord("A000045", 0, tuple(fib(n) for n in range(30)))
    assert parse_bfile(render_bfile(record), id="A000045") == record


def test_compare_identity_and_empty_overlap():
    record = SequenceRecord(None, 0, tuple(fib(n) for n in range(30)))
    report = compare([fib(n) for n in range(30)], record, 0)
    assert report.matched and report.overlap == 30
    with pytest.raises(ValueError):
        compare([1, 2, 3], record, 100)


def test_compare_reports_first_mismatch():
    record = SequenceRecord(None, 0, (1, 2, 3, 5, 8))
    report = compare([1, 2, 4, 5], record, 0)
    assert not report.matched
    assert report.first_mismatch == (2, 4, 3)


def test_compare_overlap_symmetric_under_shift_negation():
    a = [padovan(n) for n in range(25)]
    b = [fib(n) for n in range(18)]
    record_a = SequenceRecord(None, 0, tuple(a))
    record_b = SequenceRecord(None, 4, tuple(b))
    # b's list position p stands for index p + 4 on its side, so the
    # mirrored shift -shift reads 4 - shift from list positions
    for shift in range(-6, 7):
        try:
            forward = compare(a, record_b, shift)
        except ValueError:
            with pytest.raises(ValueError):
                compare(b, record_a, 4 - shift)
            continue
        backward = compare(b, record_a, 4 - shift)
        assert forward.overlap == backward.overlap


def test_padovan_shift_scan_discovers_the_offset():
    record = SequenceRecord("A000931", 0, tuple(a000931_fixture()))
    local = [padovan(n) for n in range(120)]
    reports = scan_shifts(local, record)
    best = best_match(reports)
    assert best is not None
    assert best.shift == 5
    assert best.overlap == 120
    # and it is the only fully matching shift in the window
    assert [r.shift for r in reports if r.matched] == [5]


def test_scan_shifts_skips_the_shifts_with_an_empty_overlap():
    # one remote term at index 10 meets the local indices 0..7 only at
    # shifts 3..5 of the window; local index 7 holds fib(7) = 13
    reports = scan_shifts([fib(n) for n in range(8)], SequenceRecord(None, 10, (13,)))
    assert [(r.shift, r.overlap, r.matched) for r in reports] == [(3, 1, True), (4, 1, False), (5, 1, False)]
    assert best_match(reports) == reports[0]


def test_best_match_is_none_when_no_shift_matches():
    assert best_match([]) is None
    reports = scan_shifts([fib(n) for n in range(30)], SequenceRecord(None, 0, (-1,) * 30))
    assert len(reports) == 11 and not any(r.matched for r in reports)
    assert best_match(reports) is None


def test_lucas_triangle_rows_match_the_tabulated_bfile_head():
    flattened: list[int] = []
    n = 0
    while len(flattened) < len(A029635_HEAD):
        flattened.extend(lucas_triangle_row(n))
        n += 1
    record = SequenceRecord("A029635", 0, tuple(A029635_HEAD))
    report = compare(flattened[: len(A029635_HEAD)], record, 0)
    assert report.matched and report.overlap == len(A029635_HEAD)


def test_fetch_offline_cold_cache_errors(tmp_path):
    with pytest.raises(FetchError):
        fetch_bfile("A000931", offline=True, cache=tmp_path)


def test_fetch_served_from_cache_without_network(tmp_path):
    lines = "".join(f"{i} {t}\n" for i, t in enumerate(a000931_fixture(50)))
    (tmp_path / "A000931.txt").write_text(lines, encoding="utf-8")
    record = fetch_bfile("A000931", offline=True, cache=tmp_path)
    assert record.id == "A000931"
    assert record.offset == 0
    assert len(record.terms) == 50


@pytest.mark.parametrize(
    "content", [b"0 1\n2 1\n", b"0 1\n1 \xff\n"], ids=["index-gap", "not-utf8"]
)
def test_fetch_names_a_malformed_cached_file(tmp_path, content):
    path = tmp_path / "A000931.txt"
    path.write_bytes(content)
    with pytest.raises(BFileError) as caught:
        fetch_bfile("A000931", offline=True, cache=tmp_path)
    assert str(caught.value).startswith(f"cached b-file {path} is malformed: ")


def test_fetch_normalizes_ids(tmp_path):
    (tmp_path / "A000045.txt").write_text("0 0\n1 1\n2 1\n", encoding="utf-8")
    assert fetch_bfile("45", offline=True, cache=tmp_path).terms == (0, 1, 1)
    assert fetch_bfile(" a45 ", offline=True, cache=tmp_path).id == "A000045"
    # no digits, too many, or digits outside ASCII (Arabic-Indic 4 and 5)
    for bad in ("A12345678", "", "A", " a ", "\u0664\u0665", "A\u0664\u0665"):
        with pytest.raises(ValueError, match="not an OEIS id"):
            fetch_bfile(bad, offline=True, cache=tmp_path)


def test_cache_env_variable_is_honoured(tmp_path, monkeypatch):
    monkeypatch.setenv("CUBEFACTOR_CACHE", str(tmp_path))
    (tmp_path / "A000032.txt").write_text("0 2\n1 1\n2 3\n", encoding="utf-8")
    record = fetch_bfile("A000032", offline=True)
    assert record.terms == (2, 1, 3)


def test_importing_the_cli_loads_no_http_client():
    # -S keeps site-packages, and whatever they import, out of the process
    code = "import sys, cubefactor.cli; print(*sorted(sys.modules))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True,
    )
    loaded = set(result.stdout.split())
    assert "cubefactor.oeis" in loaded
    assert not loaded & {"urllib.request", "http.client", "tempfile"}


class FakeResponse:
    def __init__(self, body: bytes, status: int = 200):
        self.body, self.status = body, status

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def read(self) -> bytes:
        return self.body


def serve(monkeypatch, outcome):
    """Patch urlopen to return or raise ``outcome``; returns its calls."""
    calls = []

    def urlopen(url, timeout):
        calls.append((url, timeout))
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    return calls


URL = "https://oeis.org/A000045/b000045.txt"


def test_fetch_downloads_validates_and_caches_atomically(tmp_path, monkeypatch):
    calls = serve(monkeypatch, FakeResponse(b"# A000045\n0 0\n1 1\n2 1\n"))
    record = fetch_bfile("45", cache=tmp_path)
    assert record == SequenceRecord("A000045", 0, (0, 1, 1))
    assert calls == [(URL, 30)]
    assert [p.name for p in tmp_path.iterdir()] == ["A000045.txt"]  # no temp file left
    assert fetch_bfile("A000045", offline=True, cache=tmp_path) == record
    assert len(calls) == 1


def test_fetch_names_a_non_200_status(tmp_path, monkeypatch):
    serve(monkeypatch, FakeResponse(b"0 0\n", status=404))
    with pytest.raises(FetchError, match=f"GET {URL} returned HTTP 404"):
        fetch_bfile("A000045", cache=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_fetch_names_the_url_when_the_request_fails(tmp_path, monkeypatch):
    failure = OSError("connection refused")
    serve(monkeypatch, failure)
    with pytest.raises(FetchError, match=f"GET {URL} failed: connection refused") as caught:
        fetch_bfile("A000045", cache=tmp_path)
    assert caught.value.__cause__ is failure


def test_fetch_caches_no_malformed_download(tmp_path, monkeypatch):
    serve(monkeypatch, FakeResponse(b"0 0\n2 1\n"))
    with pytest.raises(BFileError, match="gap"):
        fetch_bfile("A000045", cache=tmp_path)
    assert list(tmp_path.iterdir()) == []

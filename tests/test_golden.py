"""Byte-for-byte CLI goldens for the verify suites, the three factor
solvers and the graph exports. The verify golden runs against a b-file
cache rendered from the package's own terms, so every OEIS entry reaches
its PASS path offline."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from cubefactor import cli
from cubefactor.oeis import SequenceRecord, render_bfile
from cubefactor.sequences import fib, lucas, lucas_triangle_row, padovan

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("verify_all_max8_offline.txt", ["verify", "--suite", "all", "--max-n", "8", "--offline"], 1),
    ("verify_identities_max8.txt", ["verify", "--suite", "identities", "--max-n", "8"], 1),
    ("verify_identities_max300.txt", ["verify", "--suite", "identities", "--max-n", "300"], 1),
    ("verify_oracle_max16.txt", ["verify", "--suite", "oracle", "--max-n", "16"], 0),
] + [
    (
        f"factor_{family}_7_{method}.txt",
        ["factor", "--family", family, "--n", "7", "--method", method],
        0,
    )
    for family in ("gamma", "omega")
    for method in ("exact", "greedy", "structural")
] + [
    ("graph_gamma_7_dot.txt", ["graph", "--family", "gamma", "--n", "7", "--emit", "dot"], 0),
    ("graph_omega_7_edgelist.txt", ["graph", "--family", "omega", "--n", "7", "--emit", "edgelist"], 0),
]


def write_bfile_cache(directory: Path, terms: int = 120) -> None:
    flat: list[int] = []
    row = 0
    while len(flat) < terms:
        flat.extend(lucas_triangle_row(row))
        row += 1
    sources = {
        "A000931": [padovan(n) for n in range(terms)],
        "A000045": [fib(n) for n in range(terms)],
        "A000032": [lucas(n) for n in range(terms)],
        "A029635": flat[:terms],
    }
    directory.mkdir(parents=True, exist_ok=True)
    for oid, values in sources.items():
        text = render_bfile(SequenceRecord(oid, 0, tuple(values)))
        (directory / f"{oid}.txt").write_text(text, encoding="utf-8")


@pytest.mark.parametrize("name, argv, code", CASES, ids=[case[0] for case in CASES])
def test_cli_output_matches_golden(name, argv, code, capsys):
    write_bfile_cache(Path(os.environ["CUBEFACTOR_CACHE"]))
    assert cli.run(argv) == code
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / name).read_text(encoding="utf-8")
    assert captured.err == ""

"""Command-line interface.

Subcommands: poly, table, triangle, seq, graph, factor, verify, oeis.
Data goes to stdout, diagnostics to stderr; output is byte-deterministic
for a fixed command line. Exit codes: 0 success, 1 verification failure,
2 usage error, 3 network or cache error.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from itertools import islice
from typing import Sequence

from . import audit, factors, graphs, oeis, polynomials, sequences
from .polynomials import Family


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubefactor",
        description="Optimal cube factors of the gamma and omega cube families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    poly = sub.add_parser("poly", help="polynomial coefficients for one index")
    poly.add_argument("--family", choices=["gamma", "omega"], required=True)
    poly.add_argument("--n", type=int, required=True)
    poly.add_argument("--method", choices=["rec", "closed", "gf"], default="rec")
    fmt = poly.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")

    table = sub.add_parser("table", help="coefficient triangle, one row per n")
    table.add_argument("--family", choices=["gamma", "omega"], required=True)
    table.add_argument("--rows", type=int, required=True)
    table.add_argument("--csv", action="store_true")

    triangle = sub.add_parser("triangle", help="Lucas triangle rows")
    triangle.add_argument("--rows", type=int, required=True)

    seq = sub.add_parser("seq", help="sequence terms, one per line")
    seq.add_argument("--name", choices=sorted(sequences._SEEDS), required=True)
    seq.add_argument("--count", type=int, required=True)

    graph = sub.add_parser("graph", help="graph export")
    graph.add_argument("--family", choices=["gamma", "omega"], required=True)
    graph.add_argument("--n", type=int, required=True)
    graph.add_argument("--emit", choices=["dot", "edgelist"], required=True)

    factor = sub.add_parser("factor", help="cube factor of one graph")
    factor.add_argument("--family", choices=["gamma", "omega"], required=True)
    factor.add_argument("--n", type=int, required=True)
    factor.add_argument("--method", choices=["exact", "greedy", "structural"], required=True)
    factor.add_argument("--json", action="store_true")

    verify = sub.add_parser("verify", help="run the audit suites")
    verify.add_argument("--suite", choices=["identities", "oracle", "all"], required=True)
    verify.add_argument("--max-n", type=int, default=8)
    verify.add_argument("--offline", action="store_true")

    oeis_cmd = sub.add_parser("oeis", help="shift-scan comparison against a b-file")
    oeis_cmd.add_argument("--id", required=True)
    oeis_cmd.add_argument("--against", choices=sorted(sequences._SEEDS), required=True)
    oeis_cmd.add_argument("--offline", action="store_true")
    oeis_cmd.add_argument("--cache-dir", default=None)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = {
        "poly": _cmd_poly,
        "table": _cmd_table,
        "triangle": _cmd_triangle,
        "seq": _cmd_seq,
        "graph": _cmd_graph,
        "factor": _cmd_factor,
        "verify": _cmd_verify,
        "oeis": _cmd_oeis,
    }[args.command]
    # integers print at any length; Python before 3.10.7 has no digit limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return handler(args)
    except (oeis.FetchError, oeis.BFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


# ---------------------------------------------------------------------------
# plain data commands
# ---------------------------------------------------------------------------


def _poly_coeffs(family: str, n: int, method: str) -> polynomials.CubeFactorPolynomial:
    fam = Family(family)
    if method == "rec":
        return polynomials.qpoly_rec(fam, n)
    if method == "closed":
        degree = polynomials.poly_degree(fam, n)
        coeffs = tuple(polynomials.q_closed_row(fam, n, degree + 1))
        return polynomials.CubeFactorPolynomial(fam, n, coeffs)
    coeffs = sequences._term(polynomials.gf_terms(fam), n, "order")
    return polynomials.CubeFactorPolynomial(fam, n, coeffs)


def _cmd_poly(args: argparse.Namespace) -> int:
    poly = _poly_coeffs(args.family, args.n, args.method)
    if args.json:
        print(polynomials.poly_to_json(poly))
    elif args.csv:
        print(",".join(str(c) for c in poly.coeffs))
    else:
        print(" ".join(str(c) for c in poly.coeffs))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.rows < 0:
        raise ValueError("--rows must be non-negative")
    sep = "," if args.csv else " "
    for poly in islice(polynomials.qpoly_rows(args.family), args.rows):
        print(sep.join(str(c) for c in poly.coeffs))
    return 0


def _cmd_triangle(args: argparse.Namespace) -> int:
    if args.rows < 0:
        raise ValueError("--rows must be non-negative")
    for row in islice(sequences.lucas_triangle_rows(), args.rows):
        print(" ".join(str(v) for v in row))
    return 0


def _cmd_seq(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise ValueError("--count must be non-negative")
    for term in islice(sequences._terms(args.name), args.count):
        print(term)
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    g = graphs.build_graph(args.family, args.n)
    sys.stdout.write(graphs.export_graph(g, args.emit))
    return 0


def _cmd_factor(args: argparse.Namespace) -> int:
    g = graphs.build_graph(args.family, args.n)
    if args.method == "exact":
        factor = factors.exact_min_factor(g)
    elif args.method == "greedy":
        factor = factors.greedy_layered_factor(g)
    else:
        factor = factors.structural_factor(args.family, args.n, g)
    outcome = factors.verify_factor(g, factor)
    if isinstance(outcome, factors.FactorViolation):
        print(f"error: produced factor failed verification: {outcome.message}", file=sys.stderr)
        return 1
    if args.json:
        print(factors.factor_to_json(g, factor))
        return 0
    print(f"parts: {factor.part_count}")
    print("profile: " + " ".join(str(c) for c in outcome.counts))
    for part in factor.parts:
        print(f"k={part.dimension}: " + " ".join(g.labels[v] for v in part.vertices))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n < 5:
        raise ValueError("--max-n must be at least 5")
    print(f"== cubefactor verify: suite={args.suite} max-n={args.max_n} ==")
    sections: list[tuple[str, list[polynomials.AuditEntry]]] = []
    if args.suite in ("identities", "all"):
        sections.append(("sequence identities", audit.sequence_audit(args.max_n)))
        for fam in Family:
            title = f"polynomial identities: {fam.value}"
            sections.append((title, polynomials.identity_audit(fam, args.max_n)))
    if args.suite in ("oracle", "all"):
        for fam in Family:
            sections.append((f"graph oracle: {fam.value}", audit.oracle_audit(fam, args.max_n)))
    if args.suite == "all":
        sections.append(("oeis cross-checks", audit.oeis_audit(args.offline)))
    counts = Counter(e.status for _, entries in sections for e in entries)
    for title, entries in sections:
        print(f"-- {title} --")
        for e in entries:
            print(e.line())
    print(f"== summary: {counts['PASS']} PASS, {counts['FAIL']} FAIL, {counts['INFO']} INFO ==")
    return 0 if counts["FAIL"] == 0 else 1


def _cmd_oeis(args: argparse.Namespace) -> int:
    record = oeis.fetch_bfile(args.id, offline=args.offline, cache=args.cache_dir)
    local = list(islice(sequences._terms(args.against), 120))
    reports = oeis.scan_shifts(local, record)
    if not reports:
        print(f"error: no overlap with {record.id} at any shift in [-5,5]", file=sys.stderr)
        return 1
    for r in reports:
        if r.matched:
            print(f"shift {r.shift:+d}: match over {r.overlap} terms")
        else:
            i, a, b = r.first_mismatch
            print(
                f"shift {r.shift:+d}: mismatch at index {i} "
                f"(local {a}, remote {b}), overlap {r.overlap}"
            )
    best = oeis.best_match(reports)
    if best is None:
        print("result: no matching shift")
        return 1
    print(f"result: best match at shift {best.shift:+d} over {best.overlap} terms")
    return 0


if __name__ == "__main__":
    main()

"""The audit suites behind ``cubefactor verify``.

Each suite returns a list of ``AuditEntry`` values, as
``polynomials.identity_audit`` does: PASS / FAIL per check, naming the
first failing index on FAIL, and INFO for observations that do not gate.
Checks over a range of indices build their entry with
``polynomials._check``, the helper ``polynomials.identity_audit`` shares;
each sequence (a ``sequences._terms`` stream) and the recurrence rows are
read from one forward stream per suite.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, islice

from . import factors, graphs, oeis, sequences
from .polynomials import AuditEntry, Family, _check, _family, qpoly_rows

__all__ = ["sequence_audit", "oracle_audit", "oeis_audit"]

_OEIS_CHECKS: tuple[tuple[str, str], ...] = (
    ("A000931", "padovan"),
    ("A000045", "fibonacci"),
    ("A000032", "lucas"),
    ("A029635", "lucas-triangle rows flattened"),
)


def sequence_audit(max_n: int) -> list[AuditEntry]:
    """Closed forms against recurrences and two classic identities, n <= max_n."""
    sequences._check_index(max_n, "max_n")
    whole, from_one = range(max_n + 1), range(1, max_n + 1)
    rows = list(islice(sequences.lucas_triangle_rows(), max_n + 1))
    padovan = list(islice(sequences._terms("padovan"), max_n + 1))
    fib = list(islice(sequences._terms("fibonacci"), max_n + 2))
    return [
        _check(
            "padovan closed-form equals recurrence",
            (n for n in whole if sequences.padovan_closed(n) != padovan[n]),
            f"[n=0..{max_n}]",
        ),
        _check(
            "lucas-triangle recurrence rows equal the additive formula",
            (n for n, row in enumerate(rows) if row != sequences.lucas_triangle_additive_row(n)),
            f"[n=0..{max_n}]",
            at="row ",
        ),
        _check(
            "lucas-triangle row sums equal 3*2^(n-1)",
            (n for n in from_one if sum(rows[n]) != 3 * 2 ** (n - 1)),
            f"[n=1..{max_n}]",
            at="row ",
        ),
        _check(
            "fibonacci cassini identity",
            (n for n in from_one if fib[n + 1] * fib[n - 1] - fib[n] ** 2 != (-1) ** n),
            f"[n=1..{max_n}]",
        ),
        AuditEntry(
            "binomial extension is zero outside its support except C(-1,-1)=1",
            "PASS"
            if sequences.binom_ext(-1, -1) == 1
            and all(
                sequences.binom_ext(a, b) == 0
                for a in range(-4, 7)
                for b in range(-4, 7)
                if (a, b) != (-1, -1) and not (0 <= b <= a)
            )
            else "FAIL",
            "grid [-4..6]^2",
        ),
    ]


def oracle_audit(family: Family | str, max_n: int) -> list[AuditEntry]:
    """Built graphs and the three factor solvers against the sequences and
    the recurrence coefficients, and the cube-independent witness against
    padovan(n+1) and ``enumerate_cubes``. Exact search builds the same
    witness from its own cubes as its lower bound; what the audit adds is
    its own ``cube_independent_set`` call and a scan of every cube for a
    pair of the witness. The solvers read a member's cubes as subcubes of
    its coordinates (``factors._subcubes``), which ``graphs.member_coordinates``
    builds from the construction without reading a label, and the witness is
    checked against the other enumerator. The Hamming entry holds those
    coordinates against the second route, ``graphs.coordinate`` read off
    each label, once per built member.

    One pass over the built members lists each member's cubes once with
    ``enumerate_cubes`` and once with ``_subcubes``, both up to its top
    dimension, and reads the witness, dimension-1, Hamming and
    enumerator-equality checks off those two listings; it drops them
    before the solvers list their own. Every check over a range of orders
    is one key of the pass's failure table, printed in the order of the
    name table with the range of the orders it ran on: every built order,
    or those with the annotations it reads. Graphs are built up to the
    construction cap; an INFO entry names the orders the cap skipped."""
    fam = _family(family)
    sequences._check_index(max_n, "max_n")
    f = fam.value
    build_ns = range(min(max_n, graphs.DEFAULT_MAX_N) + 1)
    built = [graphs.build_graph(fam, n) for n in build_ns]
    expected_name = "fib(n+2)" if fam is Family.GAMMA else "lucas(n)"
    # one entry per key of the failure table that ran, in this order; a
    # profile that differs is INFO, not FAIL
    names = {
        "count": f"{f} vertex count equals {expected_name}",
        "connected": f"{f} graphs are connected",
        "exact": f"{f} exact-min part count equals padovan(n+1)",
        "witness": f"{f} cube-independent witness has padovan(n+1) vertices",
        "greedy": f"{f} greedy-layered profile equals recurrence coefficients",
        "structural": f"{f} structural profile equals recurrence coefficients",
        "verify": f"{f} verify-factor passes on all three solvers",
        "profile": f"{f} exact-min profile equals recurrence coefficients",
        "edges": f"{f} dimension-1 cubes are exactly the edge set",
        "hamming": f"{f} adjacency is Hamming distance 1 on the label coordinates",
        "enumerators": f"{f} cube enumeration equals coordinate subcubes at every dimension",
        "split": f"{f} recursion split partitions the vertex set",
        "subcopies": f"{f} canonical subcopies equal freshly built members",
        "cross": f"{f} cross edges form a perfect matching on the smaller copy",
    }
    split = ("cube-pair-0", "second", "third")
    bad: dict[str, list[object]] = defaultdict(list)
    ran: dict[str, list[int]] = defaultdict(list)  # the orders each key ran on
    part_counts = islice(sequences._terms("padovan"), 1, None)  # padovan(n+1) for n = 0, 1, ...
    for n, g, poly, parts in zip(build_ns, built, qpoly_rows(fam), part_counts):
        witness = factors.cube_independent_set(g)
        cubes, subcubes = factors.enumerate_cubes(g), factors._subcubes(g)
        try:
            labelled = [graphs.coordinate(fam, n, label) for label in g.labels]
        except ValueError:  # a label the rule cannot read fails the entry, not the audit
            labelled = None
        failed = {
            "count": g.vertex_count != graphs.expected_vertex_count(fam, n),
            "connected": not g.is_connected(),
            "witness": len(witness) != parts
            or bool(factors._shared_pairs(cubes, sum(1 << v for v in witness))),
            "edges": sorted(pair for level in cubes[1:2] for pair, _ in level) != sorted(g.edges()),
            # the solvers read the coordinate subcubes wherever their level 1
            # is the edge set; the two keys check that it is on every member,
            # with coordinates that the label rule reads too, and that the
            # subcubes are exactly the extension route's cubes
            "hamming": subcubes is None or labelled != graphs.member_coordinates(fam, n),
            "enumerators": subcubes != cubes,
        }
        del cubes, subcubes  # the solvers list their own
        exact = factors.exact_min_factor(g)
        greedy = factors.greedy_layered_factor(g)
        structural = factors.structural_factor(fam, n, g)
        failed.update(
            exact=exact.part_count != parts,
            greedy=greedy.profile().counts != poly.coeffs,
            structural=structural.profile().counts != poly.coeffs,
            verify=any(
                isinstance(factors.verify_factor(g, factor), factors.FactorViolation)
                for factor in (exact, greedy, structural)
            ),
            profile=exact.profile().counts != poly.coeffs,
        )
        if set(split) <= g.subcopies.keys():
            failed["split"] = sorted(
                v for name in split for v in g.subcopies[name].vertices
            ) != list(range(g.vertex_count))
        if fam is Family.OMEGA and "second" in g.subcopies:
            failed["cross"] = not _second_copy_matched(g)
        bad["subcopies"] += [f"{n} ({name})" for name in sorted(g.subcopies) if not _extracts(g, name)]
        ran["subcopies"].append(n)
        for key, hit in failed.items():
            ran[key].append(n)
            if hit:
                bad[key].append(n)

    entries = []
    for key, name in names.items():
        if key == "profile" and bad[key]:
            entries.append(AuditEntry(
                f"{f} exact-min profile vs recurrence coefficients",
                "INFO",
                f"minimum-count factor with a different profile at n={bad[key]}",
            ))
        elif ran[key]:
            entries.append(_check(name, bad[key], f"[n={ran[key][0]}..{ran[key][-1]}]"))

    if fam is Family.OMEGA and len(built) > 4:
        iso = graphs.find_isomorphism(built[4], _grid_plus_pendant())
        entries.append(AuditEntry(
            "omega order-4 member is the grid-plus-pendant graph",
            "PASS" if iso is not None else "FAIL",
            "explicit isomorphism found" if iso is not None else "no isomorphism found",
        ))

    probe_n = min(5, build_ns[-1])
    g = built[probe_n]
    factor = factors.structural_factor(fam, probe_n, g)
    round_tripped = factors.factor_from_json(g, factors.factor_to_json(g, factor))
    round_trip_ok = round_tripped == factor and isinstance(
        factors.verify_factor(g, round_tripped), factors.FactorProfile
    )
    deterministic = all(
        graphs.export_graph(g, fmt) == graphs.export_graph(g, fmt) for fmt in ("edgelist", "dot")
    )
    entries += [
        AuditEntry(
            f"{f} factor JSON round-trips through verification",
            "PASS" if round_trip_ok else "FAIL",
            f"[n={probe_n}]",
        ),
        AuditEntry(
            f"{f} exports are deterministic",
            "PASS" if deterministic else "FAIL",
            f"[n={probe_n}]",
        ),
    ]
    if max_n > build_ns[-1]:
        entries.append(AuditEntry(
            f"{f} orders skipped",
            "INFO",
            f"graphs skip n={build_ns[-1] + 1}..{max_n} "
            f"(over the construction cap n={graphs.DEFAULT_MAX_N})",
        ))
    return entries


def _extracts(g: graphs.LabeledGraph, name: str) -> bool:
    try:
        graphs.canonical_subgraph(g, name)
    except RuntimeError:
        return False
    return True


def _second_copy_matched(g: graphs.LabeledGraph) -> bool:
    # every vertex of the smaller copy has exactly one neighbour outside it
    second = g.subcopies["second"].vertices
    outside = ~sum(1 << v for v in second)
    return all((g.adj[v] & outside).bit_count() == 1 for v in second)


def _grid_plus_pendant() -> graphs.LabeledGraph:
    # 2x3 grid with one pendant vertex on a corner, as drawn for order 4
    labels = ["g00", "g01", "g02", "g10", "g11", "g12", "p"]
    edges = [
        ("g00", "g01"), ("g01", "g02"), ("g10", "g11"), ("g11", "g12"),
        ("g00", "g10"), ("g01", "g11"), ("g02", "g12"), ("g02", "p"),
    ]
    return graphs.custom_graph(labels, edges)


def _local_terms(name: str, count: int) -> list[int]:
    if name == "lucas-triangle rows flattened":
        return list(islice(chain.from_iterable(sequences.lucas_triangle_rows()), count))
    return list(islice(sequences._terms(name), count))


def oeis_audit(offline: bool) -> list[AuditEntry]:
    """Local terms against OEIS b-files, fetched or read from the cache.
    A b-file that cannot be had, or whose cached copy is malformed, is
    reported as INFO and skipped."""
    entries = []
    for oid, name in _OEIS_CHECKS:
        label = f"oeis {oid} vs {name}"
        try:
            record = oeis.fetch_bfile(oid, offline=offline)
        except oeis.FetchError:
            entries.append(AuditEntry(label, "INFO", "not available locally; skipped"))
            continue
        except oeis.BFileError as exc:
            entries.append(AuditEntry(label, "INFO", f"{exc}; skipped"))
            continue
        best = oeis.best_match(oeis.scan_shifts(_local_terms(name, 120), record))
        if best is None:
            status, detail = "FAIL", "no full-overlap match at any shift in [-5,5]"
        else:
            status, detail = "PASS", f"matched at shift {best.shift} over {best.overlap} terms"
        entries.append(AuditEntry(label, status, detail))
    return entries

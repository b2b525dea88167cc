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
    if max_n < 0:
        raise ValueError(f"max_n must be non-negative, got {max_n}")
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
    padovan(n+1) and ``check_witness``. Exact search builds the same
    witness from its own cubes as its lower bound; what the audit adds is
    its own ``cube_independent_set`` call and ``check_witness``'s scan of
    every cube. The solvers read a member's cubes as subcubes of its label
    coordinates, and ``check_witness`` reads ``enumerate_cubes``; the
    audit checks that the coordinates place every edge at Hamming distance
    1 and that the two enumerators agree at every dimension.
    Graphs are built up to the construction cap, and the entries over a
    range of orders cover every built order; an INFO entry names the
    orders the cap skipped."""
    fam = _family(family)
    if max_n < 0:
        raise ValueError(f"max_n must be non-negative, got {max_n}")
    f = fam.value
    build_ns = range(min(max_n, graphs.DEFAULT_MAX_N) + 1)
    built = [graphs.build_graph(fam, n) for n in build_ns]
    rng = f"[n=0..{build_ns[-1]}]"
    expected_name = "fib(n+2)" if fam is Family.GAMMA else "lucas(n)"
    entries = [
        _check(
            f"{f} vertex count equals {expected_name}",
            [n for n in build_ns if built[n].vertex_count != graphs.expected_vertex_count(fam, n)],
            rng,
        ),
        _check(
            f"{f} graphs are connected",
            [n for n in build_ns if not built[n].is_connected()],
            rng,
        ),
    ]

    bad: dict[str, list[int]] = defaultdict(list)
    part_counts = islice(sequences._terms("padovan"), 1, None)  # padovan(n+1) for n = 0, 1, ...
    for n, poly, parts in zip(build_ns, qpoly_rows(fam), part_counts):
        g = built[n]
        exact = factors.exact_min_factor(g)
        greedy = factors.greedy_layered_factor(g)
        structural = factors.structural_factor(fam, n, g)
        witness = factors.cube_independent_set(g)
        failed = {
            "witness": len(witness) != parts or bool(factors.check_witness(g, witness)),
            "verify": any(
                isinstance(factors.verify_factor(g, factor), factors.FactorViolation)
                for factor in (exact, greedy, structural)
            ),
            "exact": exact.part_count != parts,
            "greedy": greedy.profile().counts != poly.coeffs,
            "structural": structural.profile().counts != poly.coeffs,
            "profile": exact.profile().counts != poly.coeffs,
        }
        for key, hit in failed.items():
            if hit:
                bad[key].append(n)
    entries += [
        _check(f"{f} exact-min part count equals padovan(n+1)", bad["exact"], rng),
        _check(f"{f} cube-independent witness has padovan(n+1) vertices", bad["witness"], rng),
        _check(f"{f} greedy-layered profile equals recurrence coefficients", bad["greedy"], rng),
        _check(f"{f} structural profile equals recurrence coefficients", bad["structural"], rng),
        _check(f"{f} verify-factor passes on all three solvers", bad["verify"], rng),
    ]
    if bad["profile"]:
        entries.append(AuditEntry(
            f"{f} exact-min profile vs recurrence coefficients",
            "INFO",
            f"minimum-count factor with a different profile at n={bad['profile']}",
        ))
    else:
        entries.append(
            AuditEntry(f"{f} exact-min profile equals recurrence coefficients", "PASS", rng)
        )

    entries.append(_check(
        f"{f} dimension-1 cubes are exactly the edge set",
        [
            n
            for n in build_ns
            if sorted(verts for verts, _ in factors.enumerate_cubes(built[n], 1)[1])
            != sorted(built[n].edges())
        ],
        rng,
    ))
    # the solvers read the coordinate subcubes wherever their level 1 is
    # the edge set; the two entries check that it is on every member and
    # that the subcubes are exactly the extension route's cubes
    entries += [
        _check(
            f"{f} adjacency is Hamming distance 1 on the label coordinates",
            [n for n in build_ns if factors._subcubes(built[n], 1) is None],
            rng,
        ),
        _check(
            f"{f} cube enumeration equals coordinate subcubes at every dimension",
            [n for n in build_ns if _subcube_levels_differ(built[n])],
            rng,
        ),
    ]
    # ranges come off the built annotations: the split's here, omega's
    # cross edges' below
    split = ("cube-pair-0", "second", "third")
    split_ns = [n for n in build_ns if set(split) <= built[n].subcopies.keys()]
    if split_ns:
        entries.append(_check(
            f"{f} recursion split partitions the vertex set",
            [
                n
                for n in split_ns
                if sorted(v for name in split for v in built[n].subcopies[name].vertices)
                != list(range(built[n].vertex_count))
            ],
            f"[n={split_ns[0]}..{split_ns[-1]}]",
        ))
    entries.append(_check(
        f"{f} canonical subcopies equal freshly built members",
        [
            f"{n} ({name})"
            for n in build_ns
            for name in sorted(built[n].subcopies)
            if not _extracts(built[n], name)
        ],
        rng,
    ))

    if fam is Family.OMEGA and len(built) > 4:
        cross_ns = [n for n in build_ns if "second" in built[n].subcopies]
        entries.append(_check(
            "omega cross edges form a perfect matching on the smaller copy",
            [n for n in cross_ns if not _second_copy_matched(built[n])],
            f"[n={cross_ns[0]}..{cross_ns[-1]}]",
        ))
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


def _subcube_levels_differ(g: graphs.LabeledGraph) -> bool:
    k_max = factors._dimensions(g)
    return factors._subcubes(g, k_max) != factors.enumerate_cubes(g, k_max)


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

"""The four benchmark workloads: inputs from a seed, one task, output checks.

Every workload is a closed loop with one caller: the next task starts when
the previous one has finished. ``setup`` builds the inputs (this is what
``setup_s`` times in fresh processes), ``expect`` computes the reference
values the checks compare against (benchmark work, never timed), ``task``
runs one timed task and ``check`` returns the number of checks made and
one message per failed check.
"""

from __future__ import annotations

import json
import os
import random
import re
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import cubefactor as cf
from cubefactor import factors, oeis, polynomials, sequences
from tracer import installed
from yardstick import yardstick

HERE = Path(__file__).resolve().parent

# Sizes of the inputs. "full" is what the benchmark measures; "smoke" is
# the tiny variant its self-check runs.
SIZES = {
    "full": {
        "ladder_max_n": 8,
        "irregular_order": 7,
        "irregular_batch": 40,  # subgraphs per family per task
        "irregular_pool": 12,  # distinct batches per run; tasks cycle through them
        "wide": (("gamma", 11), ("omega", 12)),
        "poly_n": 3000,
        "identities_max_n": 300,
        "verify_all_max_n": 7,
        "table_rows": 400,
        "graph_n": 14,
        "bfile_terms": 3000,
        "probe_budget_s": 4,
        "probe_ceiling": 12,
    },
    "smoke": {
        "ladder_max_n": 4,
        "irregular_order": 5,
        "irregular_batch": 3,
        "irregular_pool": 2,
        "wide": (("gamma", 6), ("omega", 7)),
        "poly_n": 60,
        "identities_max_n": 12,
        "verify_all_max_n": 5,
        "table_rows": 20,
        "graph_n": 5,
        "bfile_terms": 200,
        "probe_budget_s": 2,
        "probe_ceiling": 5,
    },
}

DELETE_SHARE = 0.15
# the by-design failing prediction (README "Known discrepancy"); it first
# fails at n=8 and is the only FAIL line `verify` may print
ALLOWED_VERIFY_FAIL = "omega nonzero-count equals floor((n+5)/3)"


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class TaskResult:
    seconds: float
    outputs: list
    rss_mb: float | None = None  # None: the benchmark process ran the task
    # yardstick time that scales this task, when the task measured it itself
    yard_s: float | None = None


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, workdir: Path | None = None) -> None:
        self.rng = random.Random(seed)
        self.size = SIZES[size]
        self.workdir = workdir

    def setup(self) -> None:
        pass

    def expect(self) -> None:
        pass

    def task(self, tracer) -> TaskResult:
        raise NotImplementedError

    def check(self, outputs: list) -> tuple[int, list[str]]:
        raise NotImplementedError

    def _timed(self, tracer, fn) -> TaskResult:
        with installed(tracer):
            start = perf_counter()
            outputs = fn()
            seconds = perf_counter() - start
        return TaskResult(seconds, outputs)


class ExactLadder(Workload):
    name = "exact-ladder"

    def setup(self) -> None:
        top = self.size["ladder_max_n"]
        self.members = [
            (fam, n, cf.build_graph(fam, n)) for fam in ("gamma", "omega") for n in range(top + 1)
        ]

    def expect(self) -> None:
        self.expected = {(fam, n): sequences.padovan(n + 1) for fam, n, _ in self.members}

    def task(self, tracer) -> TaskResult:
        order = self.rng.sample(self.members, len(self.members))

        def run():
            out = []
            for fam, n, g in order:
                factor = factors.exact_min_factor(g)
                out.append((fam, n, factor, factors.verify_factor(g, factor)))
            return out

        return self._timed(tracer, run)

    def check(self, outputs):
        failures = []
        for fam, n, factor, outcome in outputs:
            if isinstance(outcome, factors.FactorViolation):
                failures.append(f"{fam} n={n}: exact factor fails verification: {outcome.message}")
            elif factor.part_count != self.expected[(fam, n)]:
                failures.append(
                    f"{fam} n={n}: {factor.part_count} parts, padovan(n+1)={self.expected[(fam, n)]}"
                )
        return len(outputs), failures


def balanced_deletions(nv: int, count: int, rng: random.Random) -> list[set[int]]:
    """Deletion sets of round(DELETE_SHARE * nv) vertices, one per subgraph,
    drawn from a stream of shuffled vertex permutations so that every vertex
    is deleted equally often (within one) over the batch. Balancing keeps the
    work of a batch, and so of a run, close to the same across seeds;
    independent draws vary about twice as much."""
    k = round(DELETE_SHARE * nv)
    pending: list[int] = []
    sets = []
    for _ in range(count):
        chosen: list[int] = []
        deferred: list[int] = []  # repeats of a chosen vertex wait for the next set
        while len(chosen) < k:
            if not pending:
                pending = rng.sample(range(nv), nv)
            v = pending.pop()
            (deferred if v in chosen else chosen).append(v)
        pending += deferred
        sets.append(set(chosen))
    return sets


def induced_subgraph(g, deleted: set[int]):
    keep = set(range(g.vertex_count)) - deleted
    labels = [g.labels[v] for v in sorted(keep)]
    edges = [(g.labels[u], g.labels[v]) for u, v in g.edges() if u in keep and v in keep]
    return cf.custom_graph(labels, edges)


class ExactIrregular(Workload):
    name = "exact-irregular"

    def setup(self) -> None:
        order = self.size["irregular_order"]
        batch = self.size["irregular_batch"]
        self.batches = []
        bases = [cf.build_graph(fam, order) for fam in ("gamma", "omega")]
        for _ in range(self.size["irregular_pool"]):
            subgraphs = [
                induced_subgraph(g, deleted)
                for g in bases
                for deleted in balanced_deletions(g.vertex_count, batch, self.rng)
            ]
            self.rng.shuffle(subgraphs)
            self.batches.append(subgraphs)
        self.next_batch = 0

    def task(self, tracer) -> TaskResult:
        subgraphs = self.batches[self.next_batch % len(self.batches)]
        self.next_batch += 1

        def run():
            out = []
            for h in subgraphs:
                exact = factors.exact_min_factor(h)
                outcome = factors.verify_factor(h, exact)
                greedy = factors.greedy_layered_factor(h)
                out.append((exact.part_count, outcome, greedy.part_count))
            return out

        return self._timed(tracer, run)

    def check(self, outputs):
        failures = []
        for i, (exact_parts, outcome, greedy_parts) in enumerate(outputs):
            if isinstance(outcome, factors.FactorViolation):
                failures.append(f"subgraph {i}: exact factor fails verification: {outcome.message}")
            elif exact_parts > greedy_parts:
                failures.append(f"subgraph {i}: exact {exact_parts} parts > greedy {greedy_parts}")
        return len(outputs), failures


class GreedyWide(Workload):
    name = "greedy-wide"

    def setup(self) -> None:
        self.members = [(fam, n, cf.build_graph(fam, n)) for fam, n in self.size["wide"]]

    def expect(self) -> None:
        self.expected = {(fam, n): polynomials.qpoly_rec(fam, n).coeffs for fam, n, _ in self.members}

    def task(self, tracer) -> TaskResult:
        order = self.rng.sample(self.members, len(self.members))

        def run():
            out = []
            for fam, n, g in order:
                greedy = factors.greedy_layered_factor(g, cap=g.vertex_count)
                structural = factors.structural_factor(fam, n, g)
                out.append((fam, n, "greedy", factors.verify_factor(g, greedy)))
                out.append((fam, n, "structural", factors.verify_factor(g, structural)))
            return out

        return self._timed(tracer, run)

    def check(self, outputs):
        failures = []
        for fam, n, method, outcome in outputs:
            if isinstance(outcome, factors.FactorViolation):
                failures.append(f"{fam} n={n} {method}: fails verification: {outcome.message}")
            elif outcome.counts != self.expected[(fam, n)]:
                failures.append(f"{fam} n={n} {method}: profile differs from qpoly_rec")
        return len(outputs), failures


def lucas_rows_flat(count: int) -> list[int]:
    out: list[int] = []
    n = 0
    while len(out) < count:
        out.extend(sequences.lucas_triangle_row(n))
        n += 1
    return out[:count]


def write_bfile_fixture(directory: Path, terms: int) -> None:
    """b-files rendered from the package's own terms, as long as real ones.

    The comparison is local against local: it times the b-file read, parse
    and shift-scan path, it does not certify anything against OEIS.
    """
    sources = {
        "A000931": [sequences.padovan(n) for n in range(terms)],
        "A000045": [sequences.fib(n) for n in range(terms)],
        "A000032": [sequences.lucas(n) for n in range(terms)],
        "A029635": lucas_rows_flat(terms),
    }
    for oid, values in sources.items():
        text = oeis.render_bfile(oeis.SequenceRecord(oid, 0, tuple(values)))
        header = f"# {oid}: rendered from cubefactor terms for the offline benchmark\n"
        (directory / f"{oid}.txt").write_text(header + text, encoding="utf-8")


def fibonacci_strings(n: int) -> list[str]:
    strings = [""]
    for _ in range(n):
        strings = [s + "0" for s in strings] + [s + "1" for s in strings if not s.endswith("1")]
    return strings


class CliData(Workload):
    name = "cli-data"

    def commands(self) -> list[list[str]]:
        s = self.size
        out = [
            ["verify", "--suite", "all", "--max-n", str(s["verify_all_max_n"]), "--offline"],
            ["verify", "--suite", "identities", "--max-n", str(s["identities_max_n"])],
        ]
        for method in ("rec", "closed"):
            for fam in ("gamma", "omega"):
                out.append(
                    ["poly", "--family", fam, "--method", method, "--n", str(s["poly_n"]), "--json"]
                )
        out += [
            ["table", "--family", "omega", "--rows", str(s["table_rows"]), "--csv"],
            ["graph", "--family", "gamma", "--n", str(s["graph_n"]), "--emit", "dot"],
            ["oeis", "--id", "A000931", "--against", "padovan", "--offline"],
        ]
        return out

    def setup(self) -> None:
        import cubefactor.cli  # noqa: F401  (what every command process imports)

    def expect(self) -> None:
        self.cache = self.workdir / "bfiles"
        self.cache.mkdir()
        write_bfile_fixture(self.cache, self.size["bfile_terms"])
        self.env = dict(os.environ, CUBEFACTOR_CACHE=str(self.cache))

    def task(self, tracer) -> TaskResult:
        records = []
        # a task lasts seconds, so the yardstick is timed around every
        # command rather than once per task (untraced runs only)
        yards = [yardstick()] if tracer is None else []
        for i, argv in enumerate(self.rng.sample(self.commands(), len(self.commands()))):
            out_path = self.workdir / f"stdout-{i}.txt"
            spans, span_task = ("-", "-") if tracer is None else (tracer.spans_file, f"{tracer.task}.{i}")
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), "command", str(out_path), str(spans),
                 span_task, *argv],
                capture_output=True, text=True, env=self.env, timeout=150,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"command runner failed for {argv}: {proc.stderr[-2000:]}")
            record = json.loads(proc.stdout.splitlines()[-1])
            record["argv"] = argv
            record["stdout"] = out_path.read_text(encoding="utf-8")
            out_path.unlink()
            if tracer is not None:  # the command process wrote its spans
                for name, values in record.pop("summary").items():
                    for key, value in values.items():
                        tracer.add_count(tracer.task, name, key, value)
            else:
                yards.append(yardstick())
            records.append(record)
        seconds = sum(r["run_s"] for r in records)
        scaled = sum(r["run_s"] * 2 / (a + b) for r, a, b in zip(records, yards, yards[1:]))
        return TaskResult(
            seconds=seconds,
            outputs=records,
            rss_mb=max(r["rss_mb"] for r in records),
            yard_s=seconds / scaled if yards else None,
        )

    def check(self, outputs):
        failures = []
        by_key = {}
        for r in outputs:
            label = " ".join(r["argv"])
            if r["error"]:
                failures.append(f"{label}: raised {r['error']}")
                continue
            problem = self._check_one(r)
            if problem:
                failures.append(f"{label}: {problem}")
            if r["argv"][0] == "poly":
                by_key[(r["argv"][2], r["argv"][4])] = r["stdout"]
        pairs = 0
        for fam in ("gamma", "omega"):
            rec, closed = by_key.get((fam, "rec")), by_key.get((fam, "closed"))
            if rec is not None and closed is not None:
                pairs += 1
                if polynomials.poly_from_json(rec) != polynomials.poly_from_json(closed):
                    failures.append(f"poly {fam}: rec and closed routes differ")
        return len(outputs) + pairs, failures

    def _check_one(self, r) -> str | None:
        argv, text, rc = r["argv"], r["stdout"], r["rc"]
        command = argv[0]
        if command == "verify":
            max_n = int(argv[argv.index("--max-n") + 1])
            fails = [line for line in text.splitlines() if line.startswith("FAIL ")]
            names = sorted(line[5:].split(":", 1)[0] for line in fails)
            expected = [ALLOWED_VERIFY_FAIL] if max_n >= 8 else []
            if names != expected:
                return f"FAIL lines {names}, expected {expected}"
            if rc != (1 if expected else 0):
                return f"exit status {rc}"
            summary = re.search(r" (\d+) FAIL", text.splitlines()[-1])
            if summary is None or int(summary.group(1)) != len(fails):
                return "summary line does not count the FAIL lines"
            if "all" in argv:
                oeis_lines = [line for line in text.splitlines()
                              if line.split(" ", 1)[0] in ("PASS", "FAIL", "INFO")
                              and line.split(" ", 1)[1].startswith("oeis ")]
                if len(oeis_lines) != 4 or not all(line.startswith("PASS ") for line in oeis_lines):
                    return f"oeis cross-checks did not all pass: {oeis_lines}"
            return None
        if rc != 0:
            return f"exit status {rc}: {r['stderr'][-300:]}"
        if command == "poly":
            fam, n = argv[2], int(argv[argv.index("--n") + 1])
            poly = polynomials.poly_from_json(text)
            if polynomials.poly_to_json(poly) != text.strip():
                return "JSON does not round-trip"
            if poly.family.value != fam or poly.n != n:
                return f"JSON names {poly.family.value} n={poly.n}"
            if polynomials.eval_at(poly, 1) != sequences.padovan(n + 1):
                return "eval_at(1) differs from padovan(n+1)"
            return None
        if command == "table":
            rows = [tuple(int(c) for c in line.split(",")) for line in text.splitlines()]
            rows_asked = int(argv[argv.index("--rows") + 1])
            want = [polynomials.qpoly_rec("omega", n).coeffs for n in range(rows_asked)]
            return None if rows == want else "rows differ from qpoly_rec"
        if command == "graph":
            n = int(argv[argv.index("--n") + 1])
            nodes = {line.strip()[1:-2] for line in text.splitlines() if line.strip().endswith('";')
                     and " -- " not in line}
            edges = {tuple(part.strip(' ";') for part in line.split(" -- "))
                     for line in text.splitlines() if " -- " in line}
            labels = set(fibonacci_strings(n))
            raised = ((s, s[:i] + "1" + s[i + 1:]) for s in labels for i in range(n) if s[i] == "0")
            want_edges = {(s, t) for s, t in raised if t in labels}
            if nodes != labels:
                return f"{len(nodes)} nodes, expected the {len(labels)} Fibonacci strings"
            return None if edges == want_edges else "edge set is not Hamming distance 1"
        if command == "oeis":
            last = text.splitlines()[-1] if text else ""
            return None if last.startswith("result: best match at shift +0 ") else f"reported {last!r}"
        return f"no check for {command}"


WORKLOADS = {w.name: w for w in (ExactLadder, ExactIrregular, GreedyWide, CliData)}

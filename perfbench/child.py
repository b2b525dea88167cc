"""Fresh-process entry points of the benchmark.

    child.py setup WORKLOAD SEED SIZE
        import cubefactor, build the workload's inputs, print "ready"
    child.py command STDOUT_FILE SPANS_FILE TASK ARGV...
        run one `cubefactor ARGV...` through cli.run with stdout going to
        STDOUT_FILE; print one JSON line with exit status, time and peak
        RSS. Unless SPANS_FILE is "-", trace the call, append the spans to
        SPANS_FILE under the id TASK and add their summary to the line
    child.py probe FAMILY BUDGET_S CEILING
        certify n = 0, 1, ... by exact search, each order under a SIGALRM
        budget; print one JSON line with the frontier reached
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def setup(workload: str, seed: str, size: str) -> None:
    from workloads import WORKLOADS

    WORKLOADS[workload](int(seed), size).setup()
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def command(stdout_file: str, spans_file: str, task: str, argv: list[str]) -> None:
    import contextlib
    import io
    import json
    import traceback
    from time import perf_counter

    from cubefactor import cli

    from tracer import Tracer, installed
    from workloads import rss_mb

    tracer = None
    if spans_file != "-":
        tracer = Tracer()
        tracer.task = task
    err = io.StringIO()
    error = None
    rc = None
    with open(stdout_file, "w", encoding="utf-8") as out:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), installed(tracer):
            start = perf_counter()
            try:
                rc = cli.run(argv)
            except Exception:
                error = traceback.format_exc(limit=5)
            finally:
                out.flush()
                seconds = perf_counter() - start
    record = {
        "rc": rc,
        "error": error,
        "stderr": err.getvalue(),
        "run_s": seconds,
        "rss_mb": rss_mb(),
    }
    if tracer is not None:
        record["summary"] = tracer.summary(task)
        tracer.write(spans_file)
    print(json.dumps(record))


class BudgetExpired(Exception):
    pass


def probe(family: str, budget_s: str, ceiling: str) -> None:
    import json
    import signal

    import cubefactor as cf

    def expire(signum, frame):
        raise BudgetExpired

    signal.signal(signal.SIGALRM, expire)
    frontier = -1
    stopped_at = None
    failures = []
    for n in range(int(ceiling) + 1):
        try:
            signal.setitimer(signal.ITIMER_REAL, float(budget_s))
            g = cf.build_graph(family, n)
            factor = cf.exact_min_factor(g, cap=g.vertex_count)
            outcome = cf.verify_factor(g, factor)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except BudgetExpired:
            stopped_at = n
            break
        if isinstance(outcome, cf.FactorViolation) or factor.part_count != cf.padovan(n + 1):
            failures.append(f"{family} n={n}: exact factor is not a certified optimum")
            break
        frontier = n
    print(json.dumps({
        "family": family,
        "frontier": frontier,
        "checks": frontier + 1 + len(failures),
        "failures": failures,
        "budget_stop": stopped_at is not None,
        "stopped_at": stopped_at,
    }))


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(*rest)
    elif mode == "command":
        command(rest[0], rest[1], rest[2], rest[3:])
    elif mode == "probe":
        probe(*rest)
    else:
        sys.exit(f"unknown mode {mode!r}")

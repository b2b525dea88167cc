"""cubefactor benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads: exact-ladder, exact-irregular, greedy-wide, cli-data (see
workloads.py and README.md). A run

1. builds the inputs here and runs tasks one after another for S seconds
   (at least one), checking every task's outputs, with the yardstick
   (yardstick.py) timed before each task and after the last,
2. between tasks, spread over the run, times at least ``SETUP_SAMPLES``
   fresh processes from spawn until their inputs are built,
3. probes the certification frontier per family in two fresh processes,
   so an aborted search touches neither ``task_s`` nor ``peak_rss_mb``.

``task_s`` and ``setup_s`` are medians of times scaled by the yardstick's
reference time over its time around each sample, so that they follow the
program rather than the load other tenants put on a shared machine; the
report prints the unscaled figures beside them.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` every other task runs with span wrappers installed and
the last line carries the per-layer metrics, including the tracing
overhead. Lines before it, starting with "#", are the run record and a
readable report. Exit status 0 once a result is printed (``correct`` says
whether every check passed), 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
NAMES = ("exact-ladder", "exact-irregular", "greedy-wide", "cli-data")
SETUP_SAMPLES = 9
CLI_SUBCOMMANDS = ("verify", "poly", "table", "graph", "oeis")

# (function, count) pairs reported per layer; each value is one set-up
# plus the mean of one traced task
FUNCTION_METRICS = (
    ("factors.exact_min_factor", ("self_s", "calls", "parts")),
    ("factors.enumerate_cubes", ("self_s", "calls", "cubes")),
    ("factors.greedy_layered_factor", ("self_s", "parts")),
    ("factors.verify_factor", ("self_s", "calls", "violations")),
    ("factors.structural_factor", ("self_s",)),
    ("factors.factor_to_json", ("self_s",)),
    ("graphs.build_graph", ("self_s", "calls")),
    ("graphs.build_gamma", ("self_s",)),
    ("graphs.build_omega", ("self_s",)),
    ("graphs.custom_graph", ("self_s",)),
    ("graphs.export_graph", ("self_s", "bytes")),
    ("graphs.find_isomorphism", ("self_s",)),
    ("graphs.canonical_subgraph", ("self_s",)),
    ("polynomials.qpoly_rec", ("self_s", "calls")),
    ("polynomials.gf_series", ("self_s",)),
    ("polynomials.q_closed", ("self_s", "calls")),
    ("polynomials.identity_audit", ("self_s",)),
    ("polynomials.eval_at", ("self_s",)),
    ("polynomials.poly_to_json", ("self_s", "bytes")),
    ("oeis.fetch_bfile", ("self_s", "calls", "errors")),
    ("oeis.parse_bfile", ("self_s", "terms")),
    ("oeis.scan_shifts", ("self_s",)),
    ("cli.run", ("self_s",)),
)
MODULES = ("sequences", "polynomials", "graphs", "factors", "oeis")
UNITS = {"self_s": "s", "run_s": "s", "task_s": "s", "overhead_s": "s", "bytes": "bytes",
         "peak_rss_mb": "MB"}
# the layer expected to hold the largest self-time share of a task
PREDICTED_TOP = {
    "exact-ladder": "factors.exact_min_factor",
    "exact-irregular": "factors.exact_min_factor",
    "greedy-wide": "factors.enumerate_cubes",
    "cli-data": "polynomials",
}


def metric(value: float, key: str) -> dict:
    return {"value": value, "unit": UNITS.get(key, "count")}


def time_setup(name: str, seed: int, size: str) -> float:
    """Seconds from spawning a fresh process until it has built the inputs."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "setup", name, str(seed), size],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    ) as proc:
        try:
            if not select.select([proc.stdout], [], [], 60)[0]:
                raise RuntimeError(f"set-up process for {name} not ready after 60 s")
            line = proc.stdout.readline()
            seconds = perf_counter() - start
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line != "ready\n":
                raise RuntimeError(f"set-up process for {name} failed")
        finally:
            if proc.poll() is None:
                proc.kill()
    return seconds


def probe_frontier(size: dict) -> dict[str, dict]:
    budget, ceiling = size["probe_budget_s"], size["probe_ceiling"]
    procs = {
        fam: subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "probe", fam, str(budget), str(ceiling)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        for fam in ("gamma", "omega")
    }
    results = {}
    try:
        for fam, proc in procs.items():
            out, _ = proc.communicate(timeout=budget * (ceiling + 2) + 60)
            if proc.returncode != 0:
                raise RuntimeError(f"frontier probe for {fam} failed")
            results[fam] = json.loads(out.splitlines()[-1])
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return results


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def layer_metrics(name, tracer, traced, untraced, probes) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and report lines on the shares."""
    import tracer as tracing

    per_task: dict = {}
    for index, _ in traced:
        tracing.merge(per_task, tracer.summary(index))
    per_task = {fn: {k: v / len(traced) for k, v in values.items()}
                for fn, values in per_task.items()}
    total = tracer.summary("setup")
    tracing.merge(total, per_task)

    def get(fn, key):
        return total.get(fn, {}).get(key, 0.0)

    metrics = {}
    for fn, keys in FUNCTION_METRICS:
        for key in keys:
            metrics[f"{fn}.{key}"] = metric(get(fn, key), key)
    metrics["factors.exact_min_factor.budget_stops"] = metric(
        sum(p["budget_stop"] for p in probes.values()), "count")
    for module in MODULES:
        metrics[f"{module}.self_s"] = metric(
            sum((v.get("self_s", 0.0) for fn, v in total.items()
                 if fn.startswith(module + ".")), 0.0),
            "self_s")
    metrics["sequences.calls"] = metric(
        sum(v.get("calls", 0.0) for fn, v in total.items() if fn.startswith("sequences.")), "calls")

    traced_s = statistics.median(r.seconds for _, r in traced)
    untraced_s = statistics.median(r.seconds for r in untraced)
    covered = per_task.get("covered", {}).get("s", 0.0)
    bench_self = statistics.mean(r.seconds for _, r in traced) - covered
    metrics["bench.self_s"] = metric(bench_self, "self_s")
    metrics["trace.task_s"] = metric(traced_s, "task_s")
    metrics["trace.untraced_task_s"] = metric(untraced_s, "task_s")
    metrics["trace.overhead_s"] = metric(traced_s - untraced_s, "overhead_s")

    commands = [c for r in untraced for c in r.outputs] if name == "cli-data" else []
    metrics["cli.stdout_bytes"] = metric(
        sum(len(c["stdout"].encode()) for c in commands) / max(len(untraced), 1), "bytes")
    for sub in CLI_SUBCOMMANDS:
        mine = [c for c in commands if c["argv"][0] == sub]
        metrics[f"cli.{sub}.run_s"] = metric(
            sum(c["run_s"] for c in mine) / max(len(untraced), 1), "run_s")
        metrics[f"cli.{sub}.peak_rss_mb"] = metric(
            max((c["rss_mb"] for c in mine), default=0.0), "peak_rss_mb")

    # shares of one task's time (set-up excluded), by function and by module
    shares = {fn: v["self_s"] for fn, v in per_task.items() if "self_s" in v}
    shares["bench (outside any span)"] = bench_self
    whole = sum(shares.values()) or 1.0
    lines = [f"# task self-time shares ({len(traced)} traced tasks):"]
    for fn, s in sorted(shares.items(), key=lambda kv: -kv[1])[:10]:
        lines.append(f"#   {fn:<36} {s:10.4f} s  {100 * s / whole:5.1f}%")
    by_module: dict[str, float] = {}
    for fn, s in shares.items():
        by_module[fn.split(".")[0]] = by_module.get(fn.split(".")[0], 0.0) + s
    lines.append("#   by module: " + ", ".join(
        f"{m} {100 * s / whole:.1f}%" for m, s in sorted(by_module.items(), key=lambda kv: -kv[1])))
    predicted = PREDICTED_TOP[name]
    pool = by_module if "." not in predicted else shares
    top = max(pool, key=pool.get)
    verdict = "holds" if top == predicted else f"CONTRADICTED, largest is {top}"
    lines.append(f"# prediction: largest self-time share is {predicted}: {verdict}")
    return metrics, lines


def run_workload(name: str, seed: int, seconds: int, trace: bool, size: str) -> dict:
    from tracer import Tracer, installed
    from workloads import SIZES, WORKLOADS, rss_mb
    from yardstick import REFERENCE_S, yardstick

    OUT.mkdir(exist_ok=True)
    setups: list[tuple[float, float]] = []  # (seconds, yardstick seconds just before)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        wl = WORKLOADS[name](seed, size, Path(tmp))
        tracer = Tracer(OUT / f"spans-{name}.tsv") if trace else None
        if tracer is not None:
            # cli-data's command processes append to this file as they end
            tracer.spans_file.unlink(missing_ok=True)
        with installed(tracer):
            wl.setup()
        wl.expect()

        results, traced, untraced = [], [], []
        attempted, failures = 0, []
        task_time = 0.0
        yards = [] if trace else [yardstick()]  # one before each task and after the last
        begin = perf_counter()
        while not results or perf_counter() - begin < seconds or (trace and not traced):
            # set-up samples spread over the run, so that one slow spell of
            # a shared machine does not decide their median; the schedule
            # follows the time spent in tasks, so sampling cannot feed itself
            while not trace and len(setups) < SETUP_SAMPLES * task_time / seconds:
                setups.append((time_setup(name, seed, size), yards[-1]))
            index = len(results)
            use = tracer if trace and index % 2 == 1 else None
            if use is not None:
                use.task = index
            result = wl.task(use)
            task_time += result.seconds
            if not trace:
                yards.append(yardstick())
            count, bad = wl.check(result.outputs)
            attempted += count
            failures += bad
            results.append(result)
            if use is None:
                untraced.append(result)
            else:
                traced.append((index, result))
            if name != "cli-data":  # cli-data keeps its command records for the layer metrics
                result.outputs = []
        peak = rss_mb() if name != "cli-data" else max(r.rss_mb for r in results)
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append((time_setup(name, seed, size), yards[-1]))
    probes = probe_frontier(SIZES[size])
    for p in probes.values():
        attempted += p["checks"]
        failures += p["failures"]

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "size": size,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(), "commit": git_commit(),
        "frontier_budget_s": SIZES[size]["probe_budget_s"],
        "frontier_ceiling": SIZES[size]["probe_ceiling"],
        "samples": (
            {"traced_tasks": len(traced), "untraced_tasks": len(untraced)} if trace else
            {"setup_s": len(setups), "task_s": len(untraced), "peak_rss_mb": 1,
             "frontier_n_gamma": 1, "frontier_n_omega": 1}),
        "fail_ratio": f"{len(failures)}/{attempted}",
    }
    lines = [f"# record {json.dumps(record)}"]
    lines += [f"# FAILED {msg}" for msg in failures[:20]]
    if trace:
        metrics, extra = layer_metrics(name, tracer, traced, untraced, probes)
        lines += extra
        tracer.write(tracer.spans_file)
    else:
        metrics = {
            "setup_s": metric(statistics.median(
                s * REFERENCE_S / y for s, y in setups), "task_s"),
            "task_s": metric(statistics.median(
                r.seconds * REFERENCE_S / (r.yard_s or (yards[i] + yards[i + 1]) / 2)
                for i, r in enumerate(untraced)), "task_s"),
            "peak_rss_mb": metric(peak, "peak_rss_mb"),
            "frontier_n_gamma": {"value": probes["gamma"]["frontier"], "unit": "order"},
            "frontier_n_omega": {"value": probes["omega"]["frontier"], "unit": "order"},
        }
        raw_task = [r.seconds for r in untraced]
        notes = {
            "setup_s": f"median of {len(setups)} fresh processes; unscaled "
                       f"{statistics.median(s for s, _ in setups):.4f} s",
            "task_s": f"median of {len(untraced)} tasks; unscaled median "
                      f"{statistics.median(raw_task):.4f} s, fastest {min(raw_task):.4f} s",
            "peak_rss_mb": "ru_maxrss" + (", largest command" if name == "cli-data" else ""),
        }
        for key, note in notes.items():
            v = metrics[key]
            lines.append(f"# {key:<18} {v['value']:12.4f} {v['unit']:<5} ({note})")
        lines.append(f"# yardstick          {statistics.median(yards):12.4f} s     (median of "
                     f"{len(yards)}; times above are scaled by {REFERENCE_S} s / yardstick)")
        for fam, p in probes.items():
            stop = f", budget stop at n={p['stopped_at']}" if p["budget_stop"] else ""
            lines.append(f"# frontier_n_{fam:<8} {p['frontier']:12d} order (budget "
                         f"{record['frontier_budget_s']} s per order{stop})")
        lines.append(f"# fail_ratio         {len(failures) / attempted:12.4f} "
                     f"({len(failures)} of {attempted} checks)")
    return {
        "lines": lines,
        "result": {"correct": not failures, "attempted": attempted,
                   "failed": len(failures), "metrics": metrics},
    }


def run_all(seed: int, seconds: int, trace: bool, size: str) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace)), "--size", size],
            capture_output=True, text=True, cwd=ROOT, timeout=900,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        out = proc.stdout.splitlines()
        print(f"## {name}")
        print("\n".join(out[:-1]))
        result = json.loads(out[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's self-check")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "cubefactor" / "__init__.py").is_file():
        print(f"error: no cubefactor source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace), args.size)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

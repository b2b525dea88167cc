"""Spans around the public functions of the cubefactor layers.

A Tracer replaces every public function of the layer modules, in every
cubefactor module namespace (and module-level dict) that binds it, with a
wrapper that records a span: name, start, end, parent span and task id.
Calls made through a patched binding therefore nest, for example
``exact_min_factor -> enumerate_cubes`` or ``identity_audit -> q_closed``.
Spans stay in memory; ``summary`` turns them into self times and counts,
and the caller writes the raw spans out when the run has ended.

The program is single-threaded and its only I/O is reading the b-file
cache and writing stdout, so there is no wait time to record: a span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("sequences", "polynomials", "graphs", "factors", "oeis", "cli")

# counts derived from a call's result, recorded where the work happens
_RESULT_COUNTS = {
    "factors.exact_min_factor": ("parts", lambda r: r.part_count),
    "factors.greedy_layered_factor": ("parts", lambda r: r.part_count),
    "factors.enumerate_cubes": ("cubes", lambda r: sum(len(level) for level in r)),
    "factors.verify_factor": ("violations", lambda r: int(not hasattr(r, "counts"))),
    "graphs.export_graph": ("bytes", lambda r: len(r.encode())),
    "polynomials.poly_to_json": ("bytes", lambda r: len(r.encode())),
    "oeis.parse_bfile": ("terms", lambda r: len(r.terms)),
}


def _public_functions(layer: str, module) -> dict[str, object]:
    names = getattr(module, "__all__", None) or ("run",)  # cli has no __all__
    out = {}
    for name in names:
        obj = getattr(module, name)
        if callable(obj) and not isinstance(obj, type):
            out[f"{layer}.{name}"] = obj
    return out


class Tracer:
    """Records spans while installed; ``task`` labels the spans it records."""

    def __init__(self, spans_file=None) -> None:
        self.spans_file = spans_file  # where the run's spans are written at its end
        self.spans: list[list] = []  # [name, start, end, parent index, task]
        self.counts: dict[tuple, float] = defaultdict(float)  # (task, name, key)
        self.task: object = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._wrappers: dict[int, object] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import cubefactor.cli  # noqa: F401  (loads every layer module)

        if not self._wrappers:
            for layer in LAYERS:
                module = sys.modules[f"cubefactor.{layer}"]
                for name, fn in _public_functions(layer, module).items():
                    self._wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] != "cubefactor":
                continue
            namespace = vars(module)
            for table in [namespace] + [v for v in namespace.values() if isinstance(v, dict)]:
                for key, item in list(table.items()):
                    entry = self._wrappers.get(id(item))
                    if entry is not None and item is entry[0]:
                        self._patches.append((table, key, item))
                        table[key] = entry[1]

    def uninstall(self) -> None:
        while self._patches:
            namespace, key, original = self._patches.pop()
            namespace[key] = original

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        result_count = _RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = perf_counter()
                stack.pop()
                self.counts[(span[4], name, "errors")] += 1
                raise
            span[2] = perf_counter()
            stack.pop()
            if result_count is not None:
                key, count = result_count
                self.counts[(span[4], name, key)] += count(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- results ------------------------------------------------------------

    def summary(self, task) -> dict[str, dict[str, float]]:
        """Per function: self_s, calls and result counts of one task's spans,
        plus ``covered``: the time its outermost spans cover."""
        spans = self.spans
        self_time: dict[int, float] = {}
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, parent, span_task) in enumerate(spans):
            if span_task != task:
                continue
            duration = end - start
            self_time[index] = self_time.get(index, 0.0) + duration
            if parent >= 0:
                self_time[parent] = self_time.get(parent, 0.0) - duration
            else:
                out["covered"]["s"] += duration
        for index, seconds in self_time.items():
            entry = out[spans[index][0]]
            entry["self_s"] += seconds
            entry["calls"] += 1
        for (count_task, name, key), value in self.counts.items():
            if count_task == task:
                out[name][key] += value
        return {name: dict(values) for name, values in out.items()}

    def add_count(self, task, name: str, key: str, value: float) -> None:
        self.counts[(task, name, key)] += value

    def write(self, path) -> None:
        """Append the spans to a tab-separated file (header when new)."""
        with open(path, "a", encoding="utf-8") as f:
            if f.tell() == 0:
                f.write("task\tname\tstart\tend\tparent\n")
            for name, start, end, parent, task in self.spans:
                f.write(f"{task}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


@contextmanager
def installed(tracer: Tracer | None):
    """Run the body with the tracer's wrappers in place (no-op for None)."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def merge(into: dict, part: dict) -> None:
    """Add one summary into another, in place."""
    for name, values in part.items():
        target = into.setdefault(name, {})
        for key, value in values.items():
            target[key] = target.get(key, 0.0) + value

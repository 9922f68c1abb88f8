"""Span tracing of the package's layers, from outside the package.

A :class:`Tracer` replaces every public function of each layer module with a
timing wrapper, both where the function is defined and wherever another
module of the package binds the same object (``from .x import f``), so calls
that cross layers are seen whichever name they go through.  Spans
``(name, start, end, parent, job)`` are kept in memory; per-layer metrics are
derived from them after the pass, and :meth:`Tracer.uninstall` puts every
original object back and verifies that it did.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import sys
import types
from collections import Counter
from time import perf_counter

LAYERS = (
    "exact_count",
    "special_functions",
    "calibration",
    "asymptotics",
    "formal_series",
    "gibbs",
    "cli",
)
PACKAGE = "bipartitions"
JOB_SPAN = "bench.job"  # root span of each job; its self time is harness time


def _max_digits(table) -> int:
    return len(str(max(map(max, table.counts))))


# Counters recorded from a call's arguments and result, after its span ends.
def _count_table_hook(tracer, args, kwargs, table) -> None:
    cells = (table.max1 + 1) * (table.max2 + 1)
    tracer.counters["exact_count.cells"] += cells
    tracer.job_cells[tracer.job] += cells
    digits = _max_digits(table)
    if digits > tracer.counters["exact_count.max_digits"]:
        tracer.counters["exact_count.max_digits"] = digits


def _calibrate_hook(tracer, args, kwargs, result) -> None:
    tracer.residuals.append(max(result.residuals))


def _sample_batch_hook(tracer, args, kwargs, result) -> None:
    tracer.counters["gibbs.replicas"] += int(result.Ns.shape[0])


def _sample_hook(tracer, args, kwargs, result) -> None:
    tracer.counters["gibbs.replicas"] += 1


HOOKS = {
    "exact_count.count_table": _count_table_hook,
    "calibration.calibrate": _calibrate_hook,
    "gibbs.sample_batch": _sample_batch_hook,
    "gibbs.sample": _sample_hook,
}


def _public_functions(module) -> dict[str, object]:
    """Public module-level functions (plain or lru-cached) defined in module."""
    found = {}
    for attr, obj in vars(module).items():
        if (
            not attr.startswith("_")
            and isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))
            and obj.__module__ == module.__name__
        ):
            found[attr] = obj
    return found


class Tracer:
    """Records spans around every public layer function while installed."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        # the wrappers close over these objects: clear() empties them in place
        self.spans: list = []
        self.stack: list[int] = []
        self.job = -1
        self.counters: Counter = Counter()
        self.job_cells: Counter = Counter()
        self.residuals: list[float] = []

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.job)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__bench_original__ = fn
        return traced

    def install(self) -> int:
        """Wrap every public layer function at all its package bindings."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in _public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for module in _package_modules():
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, obj))
        return len(self._patches)

    def uninstall(self) -> list[str]:
        """Restore every patched binding; return any that did not restore."""
        for module, attr, original in self._patches:
            setattr(module, attr, original)
        problems = [
            f"{module.__name__}.{attr} not restored"
            for module, attr, original in self._patches
            if getattr(module, attr) is not original
        ]
        for module in _package_modules():
            for attr, obj in vars(module).items():
                if hasattr(obj, "__bench_original__"):
                    problems.append(f"{module.__name__}.{attr} still wrapped")
        self._patches = []
        return problems

    def clear(self) -> None:
        """Drop the spans and counters of the previous pass, keep the wrappers."""
        self.spans.clear()
        self.stack.clear()
        self.job = -1
        self.counters.clear()
        self.job_cells.clear()
        self.residuals.clear()

    @contextlib.contextmanager
    def job_span(self, job: int):
        """Record the root span of one job around the with-block."""
        self.job = job
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.spans[idx] = (JOB_SPAN, t0, t1, -1, job)


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


# -- span arithmetic ---------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    selfs = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def has_ancestor(spans, idx: int, predicate) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if predicate(spans[parent][0]):
            return True
        parent = spans[parent][3]
    return False


def busy_time(spans, predicate) -> float:
    """Time covered by spans matching predicate, nested matches counted once."""
    return math.fsum(
        end - start
        for i, (name, start, end, _, _) in enumerate(spans)
        if predicate(name) and not has_ancestor(spans, i, predicate)
    )


def self_test() -> list[str]:
    """Check the self-time and busy-time arithmetic on hand-built spans."""
    spans = [
        (JOB_SPAN, 0.0, 10.0, -1, 0),
        ("cli.main", 1.0, 9.0, 0, 0),
        ("exact_count.count_table", 2.0, 5.0, 1, 0),
        ("special_functions.theta", 6.0, 8.5, 1, 0),
        ("special_functions.phi", 6.5, 7.0, 3, 0),
        ("special_functions.phi", 7.5, 8.0, 3, 0),
    ]
    problems = []
    expected_self = [2.0, 2.5, 3.0, 1.5, 0.5, 0.5]
    got = self_times(spans)
    if any(abs(g - e) > 1e-12 for g, e in zip(got, expected_self)):
        problems.append(f"self times {got} != {expected_self}")
    if abs(math.fsum(got) - 10.0) > 1e-12:
        problems.append("self times do not add up to the root span")
    same_layer = lambda n: layer_of(n) == "special_functions"  # noqa: E731
    if abs(busy_time(spans, same_layer) - 2.5) > 1e-12:
        problems.append("nested spans of one layer counted twice in busy time")
    if abs(busy_time(spans, lambda n: n == "special_functions.phi") - 1.0) > 1e-12:
        problems.append("busy time of sibling spans is not their sum")
    return problems


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(tracer: Tracer, jobs, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see BENCHMARK.json)."""
    spans = tracer.spans
    selfs = self_times(spans)
    names = [s[0] for s in spans]
    calls = Counter(layer_of(n) for n in names)
    self_s = Counter()
    for name, s in zip(names, selfs):
        self_s[layer_of(name)] += s

    def in_layer(layer):
        return lambda n: layer_of(n) == layer

    def is_fn(fn_name):
        return lambda n: n == fn_name

    counters = tracer.counters
    exact_busy = busy_time(spans, in_layer("exact_count"))
    covering = sum(
        (max(a for a, _ in jobs[j].targets) + 1) * (max(b for _, b in jobs[j].targets) + 1)
        for j, cells in tracer.job_cells.items()
        if cells and jobs[j].targets
    )
    theta_evals = sum(
        1
        for i, n in enumerate(names)
        if n == "special_functions.theta"
        and has_ancestor(spans, i, in_layer("calibration"))
    )
    sampler_busy = busy_time(spans, lambda n: n in ("gibbs.sample_batch", "gibbs.sample"))
    layer_self_total = math.fsum(self_s[layer] for layer in LAYERS)
    return {
        "exact_count.calls": calls["exact_count"],
        "exact_count.busy_s": exact_busy,
        "exact_count.cells": counters["exact_count.cells"],
        "exact_count.cells_per_s": _ratio(counters["exact_count.cells"], exact_busy),
        "exact_count.max_digits": counters["exact_count.max_digits"],
        "exact_count.cells_useful_ratio": _ratio(covering, counters["exact_count.cells"]),
        "special_functions.calls": calls["special_functions"],
        "special_functions.self_s": self_s["special_functions"],
        "calibration.calls": calls["calibration"],
        "calibration.theta_evals": theta_evals,
        "calibration.self_s": self_s["calibration"],
        "calibration.max_residual": max(tracer.residuals, default=0.0),
        "asymptotics.calls": calls["asymptotics"],
        "asymptotics.self_s": self_s["asymptotics"],
        "gibbs.self_s": self_s["gibbs"],
        "gibbs.lyapunov_bound.calls": names.count("gibbs.lyapunov_bound"),
        "gibbs.lyapunov_bound.busy_s": busy_time(spans, is_fn("gibbs.lyapunov_bound")),
        "gibbs.llt_check.self_s": math.fsum(
            s for n, s in zip(names, selfs) if n == "gibbs.llt_check"
        ),
        "gibbs.sample_batch.busy_s": busy_time(spans, is_fn("gibbs.sample_batch")),
        "gibbs.replicas": counters["gibbs.replicas"],
        "gibbs.replicas_per_s": _ratio(counters["gibbs.replicas"], sampler_busy),
        "gibbs.char_fn.busy_s": busy_time(spans, is_fn("gibbs.char_fn")),
        "formal_series.calls": calls["formal_series"],
        "formal_series.busy_s": busy_time(spans, in_layer("formal_series")),
        "cli.self_s": self_s["cli"],
        "trace.spans": len(spans),
        "trace.layer_self_share": _ratio(layer_self_total, wall_s),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}


if __name__ == "__main__":
    failures = self_test()
    print("\n".join(failures) or "span arithmetic self-test passed")
    sys.exit(1 if failures else 0)

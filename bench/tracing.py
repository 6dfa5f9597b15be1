"""Outside-in tracing of the sweep pipeline, for the benchmark's traced run.

:class:`Tracer` replaces the public entry points of each codebath layer with
wrappers that record a span (name, start, end, parent span, pass) and count
the work the call did.  Where ``sweeps`` imported a name directly, the
binding inside ``sweeps`` is the one patched.  Spans stay in memory and are
written out when the run ends.  Wrappers run the original function without
recording in any other process (pool workers), because their spans could
not be read back.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import pickle
import statistics
import time
from collections import Counter, defaultdict

from codebath import lifetimes, rg_flow, surface_code, sweeps, wick

SPAN_METRICS = {
    "sweeps.validate": "sweeps.validate_s",
    "sweeps.grid": "sweeps.grid_s",
    "sweeps.evaluate": "sweeps.evaluate_s",
    "sweeps.write": "sweeps.write_s",
    "wick.matching_sum": "wick.matching_sum_s",
    "surface_code.failure_census": "surface_code.failure_census_s",
    "rg_flow.integrate_flow": "rg_flow.integrate_flow_s",
    "lifetimes.build_report": "lifetimes.build_report_s",
}
COUNT_METRICS = (
    "sweeps.rows_written", "sweeps.files_written", "sweeps.write_bytes",
    "sweeps.pool.jobs", "sweeps.pool.result_bytes",
    "wick.matching_sum.calls", "wick.pairings",
    "surface_code.decodes", "surface_code.tie_decodes",
    "rg_flow.integrate_flow.calls", "rg_flow.solve_ivp_calls", "rg_flow.nfev",
    "rg_flow.samples", "rg_flow.terminal.StrongCoupling",
    "rg_flow.terminal.Localized", "rg_flow.terminal.CutoffReached",
    "lifetimes.build_report.calls", "lifetimes.saturation_warnings",
)
# Counts that must repeat exactly for a given seed.
EXACT_COUNTS = (
    "wick.pairings", "surface_code.decodes", "rg_flow.nfev",
    "sweeps.rows_written", "sweeps.pool.jobs",
)


def double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2))


class Tracer:
    """Spans and counters for the passes of one traced run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.drift: dict[int, float] = defaultdict(float)
        self.pass_no = -1
        self._stack: list[int] = []
        self._pid = os.getpid()

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, time.perf_counter(), math.nan, parent, self.pass_no))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent, pass_no = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, pass_no)

    def count(self, key: str, value: float = 1) -> None:
        self.counts[self.pass_no][key] += value

    def _wrap(self, fn, name: str | None, after):
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                with self.span(name):
                    result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # after-hooks: the work each call did, read from its arguments and result

    def _after_map(self, args, results) -> None:
        _, _, points, workers = args
        if workers > 1 and len(points) > 1:
            self.count("sweeps.pool.jobs", len(points))
            self.count(
                "sweeps.pool.result_bytes",
                sum(len(pickle.dumps(r, pickle.DEFAULT_PROTOCOL)) for r in results),
            )

    def _after_write(self, args, _) -> None:
        path, _, rows = args
        self.count("sweeps.rows_written", len(rows))
        self.count("sweeps.files_written")
        self.count("sweeps.write_bytes", os.path.getsize(path))

    def _after_flow(self, _, trace) -> None:
        self.count("rg_flow.integrate_flow.calls")
        self.count("rg_flow.samples", len(trace.samples))
        self.count(f"rg_flow.terminal.{type(trace.terminal).__name__}")
        self.drift[self.pass_no] = max(self.drift[self.pass_no], trace.invariant_drift)

    def _after_solve(self, _, sol) -> None:
        self.count("rg_flow.solve_ivp_calls")
        self.count("rg_flow.nfev", int(sol.nfev))

    def _after_matching(self, args, _) -> None:
        self.count("wick.matching_sum.calls")
        self.count("wick.pairings", double_factorial(len(args[0].positions) - 1))

    def _after_census(self, _, rec) -> None:
        decodes = math.comb(rec.L, rec.weight)
        self.count("surface_code.decodes", decodes)
        if 2 * rec.weight == rec.L:
            self.count("surface_code.tie_decodes", decodes)

    def _after_report(self, *_) -> None:
        self.count("lifetimes.build_report.calls")

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced binding for the duration of the block."""
        targets = [
            (sweeps, "validate_config", "sweeps.validate", None),
            (sweeps, "grid_points", "sweeps.grid", None),
            (sweeps, "_map_points", "sweeps.evaluate", self._after_map),
            (sweeps, "_write_rows", "sweeps.write", self._after_write),
            (sweeps, "integrate_flow", "rg_flow.integrate_flow", self._after_flow),
            (rg_flow, "solve_ivp", None, self._after_solve),
            (wick, "matching_sum", "wick.matching_sum", self._after_matching),
            (surface_code, "failure_census", "surface_code.failure_census", self._after_census),
            (lifetimes, "build_report", "lifetimes.build_report", self._after_report),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
        try:
            for module, attr, name, after in targets:
                setattr(module, attr, self._wrap(getattr(module, attr), name, after))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    # --- per-pass aggregation ---------------------------------------------

    def pass_times(self, passes: list[int]) -> dict[str, list[float]]:
        """Per pass, summed span time of each layer metric plus evaluate self
        time (evaluate minus the time its direct child spans cover)."""
        wanted = set(passes)
        child_time: Counter = Counter()
        for name, start, end, parent, pass_no in self.spans:
            if parent is not None and pass_no in wanted:
                child_time[parent] += end - start
        totals = {p: Counter() for p in passes}
        for index, (name, start, end, _, pass_no) in enumerate(self.spans):
            if pass_no not in wanted:
                continue
            if name in SPAN_METRICS:
                totals[pass_no][SPAN_METRICS[name]] += end - start
            if name == "sweeps.evaluate":
                totals[pass_no]["sweeps.evaluate.self_s"] += end - start - child_time[index]
        keys = list(SPAN_METRICS.values()) + ["sweeps.evaluate.self_s"]
        return {key: [totals[p][key] for p in passes] for key in keys}

    def pass_counts(self, passes: list[int]) -> tuple[dict[str, float], bool]:
        """Counts of one pass, and whether every listed pass repeated the
        exact counts."""
        first = self.counts[passes[0]]
        repeat = all(
            self.counts[p][key] == first[key] for p in passes for key in EXACT_COUNTS
        )
        counts = {key: first[key] for key in COUNT_METRICS}
        counts["rg_flow.invariant_drift_max"] = max(self.drift[p] for p in passes)
        return counts, repeat

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "pass"],
                    "spans": self.spans,
                    "counts": {str(p): dict(c) for p, c in self.counts.items()},
                },
                fh,
            )


def medians(series: dict[str, list[float]]) -> dict[str, float]:
    return {key: statistics.median(values) for key, values in series.items()}

"""In-memory span tracer and the statistics the benchmark reports.

A span is (name, start, end, parent).  Spans are kept in a list while a pass
runs and reduced to per-layer totals when it ends.  The tracer's clock can
be paused: work the benchmark does for its own measurements (such as the
rank of a prox output) runs with the clock stopped, so it is charged to no
span and does not count as tracing overhead.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

TAIL_MIN_BEYOND = 10


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._paused = 0.0
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)

    def now(self) -> float:
        """Clock time minus the time spent paused."""
        return self._clock() - self._paused

    @contextmanager
    def paused(self):
        t0 = self._clock()
        try:
            yield
        finally:
            self._paused += self._clock() - t0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, self.now(), float("nan"), parent))
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            _, start, _, _ = self.spans[index]
            self.spans[index] = (name, start, self.now(), parent)

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def wrap(self, name: str, fn, on_result=None):
        """fn recorded as a span; on_result(result, args, kwargs) runs after
        the span closes, with the clock paused."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name] += 1
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                with self.paused():
                    on_result(result, args, kwargs)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Per name: span durations minus the durations of their child spans."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return dict(out)

    def total_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return dict(out)


def tail(values) -> tuple[float, float, int] | None:
    """(percentile, value, sample count) at the highest percentile with at
    least TAIL_MIN_BEYOND samples above it; None below 2*TAIL_MIN_BEYOND
    samples, where that percentile would fall below the median."""
    xs = sorted(values)
    n = len(xs)
    if n < 2 * TAIL_MIN_BEYOND:
        return None
    return 100.0 * (n - TAIL_MIN_BEYOND) / n, xs[n - TAIL_MIN_BEYOND - 1], n


def overhead_frac(traced_wall: float, untraced_wall: float) -> float:
    """Share by which tracing lengthened the same work."""
    return traced_wall / untraced_wall - 1.0


def median(values) -> float:
    """Median, or 0.0 for a layer that saw no calls."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def iqr(values) -> float:
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q3 - q1)

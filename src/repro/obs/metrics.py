"""Zero-dependency metrics: counters, gauges, timers, histograms.

The experiments run millions of Markov phases; a
:class:`MetricsRegistry` gives them cheap named instruments (phase
counts, RNG draws, Fact 3.2 update costs, coupling-distance samples)
that aggregate in memory and serialize to a plain dict.  Three design
rules keep the hot loops honest:

1. **No-op when disabled.**  Instrumented code guards every touch with
   :func:`repro.obs.enabled`, so a disabled run costs one boolean check
   per *run() call* (not per phase).
2. **Mergeable.**  :meth:`MetricsRegistry.snapshot` /
   :meth:`MetricsRegistry.merge` round-trip through JSON-serializable
   dicts, which is how :func:`repro.utils.parallel.parallel_replica_map`
   folds per-worker registries back into the parent process.
3. **Process-global default.**  Library code records against
   :func:`default_registry`; tests and workers swap in a scratch
   registry with :func:`scoped_registry`.
"""

from __future__ import annotations

import bisect
import time
from contextlib import contextmanager
from typing import Iterator, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "scoped_registry",
]


class Counter:
    """Monotone additive counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add *n* (negative increments are rejected: counters only grow)."""
        if n < 0:
            raise ValueError(f"counter increments must be >= 0, got {n}")
        self.value += n


class Gauge:
    """Last-write-wins instantaneous value (e.g. state-space size)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = float(value)


class Timer:
    """Accumulating wall-clock timer (count / total / min / max seconds)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        """Record one measured duration."""
        if seconds < 0:
            raise ValueError(f"durations must be >= 0, got {seconds}")
        self.count += 1
        self.total += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)

    @property
    def mean(self) -> float:
        """Mean duration in seconds (0.0 before any observation)."""
        return self.total / self.count if self.count else 0.0

    @contextmanager
    def time(self) -> Iterator[None]:
        """Context manager timing the enclosed block."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - t0)


class Histogram:
    """Fixed-bucket histogram: ``bounds`` are inclusive upper edges.

    Values above the last bound land in the overflow bucket, so
    ``len(counts) == len(bounds) + 1``.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total")

    def __init__(self, name: str, bounds: Sequence[float]):
        b = [float(x) for x in bounds]
        if not b or any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError("bounds must be non-empty and strictly increasing")
        self.name = name
        self.bounds = b
        self.counts = [0] * (len(b) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one sample."""
        v = float(value)
        self.counts[bisect.bisect_left(self.bounds, v)] += 1
        self.count += 1
        self.total += v


class MetricsRegistry:
    """Named instruments with get-or-create access and dict round-trips."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timers: dict[str, Timer] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument access (get-or-create) -----------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called *name* (created at 0 on first access)."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """The gauge called *name*."""
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def timer(self, name: str) -> Timer:
        """The timer called *name*."""
        t = self._timers.get(name)
        if t is None:
            t = self._timers[name] = Timer(name)
        return t

    def histogram(self, name: str, bounds: Sequence[float] | None = None) -> Histogram:
        """The histogram called *name*; *bounds* are required at creation."""
        h = self._histograms.get(name)
        if h is None:
            if bounds is None:
                raise KeyError(f"histogram {name!r} does not exist and no bounds given")
            h = self._histograms[name] = Histogram(name, bounds)
        return h

    def __len__(self) -> int:
        return (
            len(self._counters) + len(self._gauges)
            + len(self._timers) + len(self._histograms)
        )

    # -- serialization / merge ------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serializable dump of every instrument."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "timers": {
                n: {"count": t.count, "total": t.total, "min": t.min, "max": t.max}
                for n, t in sorted(self._timers.items())
                if t.count
            },
            "histograms": {
                n: {
                    "bounds": h.bounds,
                    "counts": h.counts,
                    "count": h.count,
                    "total": h.total,
                }
                for n, h in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` dict into this registry.

        Counters/timers/histograms add; gauges take the incoming value
        (last write wins).  This is the parallel-worker merge path.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value += int(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, d in snapshot.get("timers", {}).items():
            t = self.timer(name)
            t.count += int(d["count"])
            t.total += float(d["total"])
            t.min = min(t.min, float(d["min"]))
            t.max = max(t.max, float(d["max"]))
        for name, d in snapshot.get("histograms", {}).items():
            h = self.histogram(name, d["bounds"])
            if h.bounds != [float(b) for b in d["bounds"]]:
                raise ValueError(f"histogram {name!r} bucket bounds mismatch on merge")
            for i, c in enumerate(d["counts"]):
                h.counts[i] += int(c)
            h.count += int(d["count"])
            h.total += float(d["total"])

    def reset(self) -> None:
        """Drop every instrument."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()
        self._histograms.clear()

    def render(self) -> str:
        """Plain-text table of the current values (for logs / summarize)."""
        from repro.utils.tables import Table

        parts = []
        if self._counters:
            t = Table(["counter", "value"], title="counters")
            for n, c in sorted(self._counters.items()):
                t.add_row([n, c.value])
            parts.append(t.render())
        if self._gauges:
            t = Table(["gauge", "value"], title="gauges")
            for n, g in sorted(self._gauges.items()):
                t.add_row([n, g.value])
            parts.append(t.render())
        timers = {n: t for n, t in self._timers.items() if t.count}
        if timers:
            t = Table(["timer", "count", "total s", "mean s", "max s"], title="timers")
            for n, tm in sorted(timers.items()):
                t.add_row([n, tm.count, tm.total, tm.mean, tm.max])
            parts.append(t.render())
        if self._histograms:
            t = Table(["histogram", "count", "mean", "buckets"], title="histograms")
            for n, h in sorted(self._histograms.items()):
                mean = h.total / h.count if h.count else 0.0
                t.add_row([n, h.count, mean, " ".join(str(c) for c in h.counts)])
            parts.append(t.render())
        return "\n\n".join(parts) if parts else "(no metrics recorded)"


_default = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global registry instrumented library code records to."""
    return _default


@contextmanager
def scoped_registry(registry: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:
    """Temporarily swap the default registry (a fresh one if none given).

    Used by tests and by parallel workers so each replica's metrics are
    captured in isolation and merged back explicitly.
    """
    global _default
    prev = _default
    _default = registry if registry is not None else MetricsRegistry()
    try:
        yield _default
    finally:
        _default = prev

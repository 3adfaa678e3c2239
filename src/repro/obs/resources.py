"""Process resource sampling: RSS and CPU of the running process.

:func:`read_rss_kb` is the one RSS probe (worker heartbeats on the
telemetry bus report it); :class:`ResourceSampler` samples it, with
CPU utilisation, on a background thread for ``repro bench run``.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
from typing import Any

__all__ = ["ResourceSampler", "read_rss_kb"]


def read_rss_kb() -> float:
    """Resident set size in KiB (``/proc``; peak-RSS fallback elsewhere)."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1])
    except OSError:
        pass
    try:
        import resource
    except ImportError:  # pragma: no cover - no /proc and no resource
        return 0.0

    # ru_maxrss is the *peak*, and is bytes on macOS, KiB on Linux.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 1024.0 if sys.platform == "darwin" else float(peak)


class ResourceSampler:
    """Background thread sampling RSS/CPU every *interval* seconds.

    With a :class:`~repro.obs.recorder.RunRecorder` attached, samples also land in the run
    artifact as ``resource/rss_mb`` and ``resource/cpu_pct`` series, so
    ``repro obs summarize`` shows the memory/CPU profile of a bench
    session.  :meth:`begin_window`/:meth:`end_window` bracket one bench
    for its peak RSS.
    """

    def __init__(self, *, interval: float = 0.05, recorder: Any = None):
        self.interval = interval
        self.recorder = recorder
        self.peak_rss_kb = self._window_peak_kb = 0.0
        self.samples = 0
        self._cpu_pcts: list[float] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="repro-bench-sampler", daemon=True
        )

    # One direct sample, updating peaks (called from the loop *and* at
    # window edges so even sub-interval benches get a reading).
    def sample_now(self) -> float:
        rss = read_rss_kb()
        with self._lock:
            self.samples += 1
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
            self._window_peak_kb = max(self._window_peak_kb, rss)
            step = self.samples
        if self.recorder is not None:
            self.recorder.record("resource/rss_mb", step, rss / 1024.0)
        return rss

    def _loop(self) -> None:
        last_wall, last_cpu = time.perf_counter(), time.process_time()
        while not self._stop.wait(self.interval):
            self.sample_now()
            wall, cpu = time.perf_counter(), time.process_time()
            pct = 100.0 * (cpu - last_cpu) / max(wall - last_wall, 1e-9)
            last_wall, last_cpu = wall, cpu
            with self._lock:
                self._cpu_pcts.append(pct)
                step = self.samples
            if self.recorder is not None:
                self.recorder.record("resource/cpu_pct", step, pct)

    def start(self) -> "ResourceSampler":
        self.sample_now()
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=2.0)

    def begin_window(self) -> None:
        with self._lock:
            self._window_peak_kb = 0.0
        self.sample_now()

    def end_window(self) -> float:
        """Close the window; returns its peak RSS in KiB."""
        self.sample_now()
        with self._lock:
            return self._window_peak_kb

    @property
    def cpu_pct_mean(self) -> float:
        with self._lock:
            return statistics.fmean(self._cpu_pcts) if self._cpu_pcts else 0.0

"""The observability on/off switch and the active run recorder.

This module exists so the hot loops can guard instrumentation with a
single cheap check (``if obs.enabled():``) without importing the
heavier metrics / recorder machinery into their fast path, and without
import cycles inside :mod:`repro.obs`.

Everything here is re-exported from :mod:`repro.obs`; instrumented
modules use that facade.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.recorder import RunRecorder

__all__ = [
    "enabled",
    "enable",
    "disable",
    "get_recorder",
    "set_recorder",
    "record_sample",
    "record_event",
    "probe_interval",
    "set_probe_interval",
    "record_point",
    "record_monitor",
]

_enabled = False
_recorder: Optional["RunRecorder"] = None
_probe_every = 0


def enabled() -> bool:
    """True when instrumentation should record (the hot-path guard)."""
    return _enabled


def enable() -> None:
    """Turn instrumentation on process-wide."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn instrumentation off process-wide."""
    global _enabled
    _enabled = False


def set_recorder(recorder: Optional["RunRecorder"]) -> Optional["RunRecorder"]:
    """Install (or clear) the active run recorder; returns the previous one."""
    global _recorder
    prev = _recorder
    _recorder = recorder
    return prev


def get_recorder() -> Optional["RunRecorder"]:
    """The active run recorder, or ``None`` outside an observed run."""
    return _recorder


def record_sample(series: str, step: int, value: float) -> None:
    """Record one time-series sample on the active recorder (no-op without one).

    Callers guard with :func:`enabled` first, so the common disabled
    path never reaches this function.
    """
    if _recorder is not None:
        _recorder.record(series, step, value)


def record_event(event: dict) -> None:
    """Emit one raw event on the active recorder (no-op without one).

    Used by cold-path producers (e.g. :mod:`repro.obs.profile`) that
    want their output attached to the run artifact's event stream
    without importing the recorder machinery.
    """
    if _recorder is not None:
        _recorder.emit(event)


def probe_interval() -> int:
    """The per-step probe decimation k (0 = probes off, the default).

    Engines consult this once per ``run()`` call, inside the
    :func:`enabled` branch — the probes-off path costs nothing beyond
    the existing boolean guard.
    """
    return _probe_every


def set_probe_interval(every: int) -> int:
    """Set the probe decimation (sample every k-th step; 0 disables).

    Returns the previous interval so scoped users (``observe_run``)
    can restore it.
    """
    global _probe_every
    if every < 0:
        raise ValueError(f"probe interval must be >= 0, got {every}")
    prev = _probe_every
    _probe_every = int(every)
    return prev


def record_point(series: str, step: int, stats: dict) -> None:
    """Record one timeseries point on the active recorder (no-op without one)."""
    if _recorder is not None:
        _recorder.record_point(series, step, stats)


def record_monitor(event: dict) -> None:
    """Emit one recovery-monitor event on the active recorder (no-op without one).

    Monitor events live in ``timeseries.jsonl``, where ``repro obs
    watch`` tails them live and ``repro obs summarize`` reads them.
    """
    if _recorder is not None:
        _recorder.record_monitor(event)

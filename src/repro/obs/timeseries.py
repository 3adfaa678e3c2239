"""The ``timeseries.jsonl`` stream format: schema, reader, accessors.

Probe points (:mod:`repro.obs.probes`) stream into a dedicated
``runs/<id>/timeseries.jsonl`` file, separate from ``events.jsonl`` —
the event stream stays checkpoint-rate while trajectories can carry
thousands of decimated points.  The format is line-delimited JSON:

* line 1 — ``{"type": "header", "schema": "repro.timeseries/1",
  "probe_every": k}``;
* ``{"type": "point", "series": ..., "step": ..., "stats": {...}}`` —
  one probe snapshot (streaming-estimator state at that step);
* ``{"type": "monitor", "monitor": ..., "step": ..., ...}`` — a
  recovery-monitor event; this stream is its only home, so a live
  ``repro obs watch`` tail and ``repro obs summarize`` read it here.

Points and monitors from a parallel campaign additionally carry a
``"worker": k`` tag — the shard lane they came from over the telemetry
bus (:mod:`repro.obs.bus`).  Nothing in the stream carries wall-clock
time: for a fixed seed the file is a deterministic — byte-identical —
function of the trajectory (tested in ``tests/test_probes.py`` and
``tests/test_bus.py``; the recorder canonicalizes lane order at
finish).

Worker liveness lives in a *separate* ``heartbeats.jsonl`` stream
(schema ``repro.heartbeat/1``): heartbeats carry wall-clock timestamps
and RSS by design, so they are excluded from the determinism contract.

The reader below mirrors :func:`repro.obs.recorder.load_run`'s
corruption tolerance: truncated tails from killed runs are counted and
skipped, never raised.
"""

from __future__ import annotations

import json
import os

__all__ = [
    "TIMESERIES_SCHEMA",
    "TIMESERIES_FILE",
    "HEARTBEAT_SCHEMA",
    "HEARTBEAT_FILE",
    "load_timeseries",
    "load_heartbeats",
    "header_of",
    "points_by_series",
    "points_by_lane",
    "workers_of",
    "latest_heartbeats",
    "monitor_events",
    "stat_track",
]

#: Schema tag written in the header line; bump on breaking changes.
TIMESERIES_SCHEMA = "repro.timeseries/1"

#: File name inside a run directory.
TIMESERIES_FILE = "timeseries.jsonl"

#: Schema tag of the worker-liveness stream (wall-clock allowed).
HEARTBEAT_SCHEMA = "repro.heartbeat/1"

#: File name of the worker-liveness stream inside a run directory.
HEARTBEAT_FILE = "heartbeats.jsonl"


def load_timeseries(run_dir: str) -> tuple[list[dict], int]:
    """Read ``<run_dir>/timeseries.jsonl``; returns ``(records, corrupt)``.

    A missing file is an empty stream, not an error — most runs never
    enable probes.  Corrupt or truncated lines (killed runs) are
    counted and skipped.
    """
    path = os.path.join(run_dir, TIMESERIES_FILE)
    records: list[dict] = []
    corrupt = 0
    if not os.path.exists(path):
        return records, corrupt
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                corrupt += 1
                continue
            if isinstance(record, dict):
                records.append(record)
            else:
                corrupt += 1
    return records, corrupt


def load_heartbeats(run_dir: str) -> tuple[list[dict], int]:
    """Read ``<run_dir>/heartbeats.jsonl``; returns ``(records, corrupt)``.

    Same tolerance contract as :func:`load_timeseries`: a missing file
    is an empty stream (single-process runs never heartbeat), corrupt
    lines are counted and skipped.
    """
    path = os.path.join(run_dir, HEARTBEAT_FILE)
    records: list[dict] = []
    corrupt = 0
    if not os.path.exists(path):
        return records, corrupt
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                corrupt += 1
                continue
            if isinstance(record, dict):
                records.append(record)
            else:
                corrupt += 1
    return records, corrupt


def header_of(records: list[dict]) -> dict:
    """The stream header, or ``{}`` when the header line was lost."""
    for r in records:
        if r.get("type") == "header":
            return r
    return {}


def points_by_series(records: list[dict]) -> dict[str, list[dict]]:
    """Point records regrouped as ``series -> [point, ...]`` (step order)."""
    out: dict[str, list[dict]] = {}
    for r in records:
        if r.get("type") == "point" and "series" in r:
            out.setdefault(r["series"], []).append(r)
    return out


def points_by_lane(records: list[dict]) -> dict[tuple[str, int | None], list[dict]]:
    """Point records regrouped as ``(series, worker) -> [point, ...]``.

    The worker key is ``None`` for untagged (single-process) points, so
    pre-bus artifacts read back as one anonymous lane per series.
    """
    out: dict[tuple[str, int | None], list[dict]] = {}
    for r in records:
        if r.get("type") == "point" and "series" in r:
            out.setdefault((r["series"], r.get("worker")), []).append(r)
    return out


def workers_of(records: list[dict]) -> list[int]:
    """The distinct worker lanes present in the stream, sorted."""
    return sorted(
        {r["worker"] for r in records if isinstance(r.get("worker"), int)}
    )


def latest_heartbeats(records: list[dict]) -> dict[int, dict]:
    """Per-worker latest liveness record: ``worker -> record``.

    A ``bye`` supersedes earlier heartbeats (the record's ``type`` key
    tells a clean exit from a mere latest beat).
    """
    out: dict[int, dict] = {}
    for r in records:
        if r.get("type") in ("heartbeat", "bye") and isinstance(
            r.get("worker"), int
        ):
            out[r["worker"]] = r
    return out


def monitor_events(records: list[dict]) -> list[dict]:
    """The recovery-monitor events, in emission order."""
    return [r for r in records if r.get("type") == "monitor"]


def stat_track(points: list[dict], stat: str) -> tuple[list[int], list[float]]:
    """Extract one scalar stat across points: ``(steps, values)``.

    *stat* addresses into each point's ``stats`` dict, with ``/`` for
    nesting (``"load/max"``).  Points lacking the stat (or with a
    non-numeric value) are skipped, so mixed-schema streams degrade
    instead of raising.
    """
    steps: list[int] = []
    values: list[float] = []
    keys = stat.split("/")
    for p in points:
        node = p.get("stats", {})
        for k in keys:
            if not isinstance(node, dict) or k not in node:
                node = None
                break
            node = node[k]
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            steps.append(int(p.get("step", 0)))
            values.append(float(node))
    return steps, values

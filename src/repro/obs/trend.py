"""Campaign observatory: the run/bench index and the perf trajectory.

Two commands on top of the artifacts every run and bench already
writes:

* ``repro obs index`` — one JSONL index (``runs/index.jsonl``, schema
  ``repro.index/1``) over all ``runs/<id>/`` artifacts and committed
  ``BENCH_*.json`` trajectory points, rebuildable from disk at any
  time (the file is a cache, never the source of truth);
* ``repro obs trend [metric]`` — the per-commit perf trajectory across
  every bench artifact, as ASCII sparkline + table (``--json`` for
  machines), plus trajectory-wide drift detection:
  ``--fail-on-regression`` compares the *head* artifact not against a
  single predecessor but against the pooled samples of the trailing
  window, through ``obs diff``'s own per-metric comparator
  (:func:`repro.obs.compare.metric_delta`).

Bench artifacts historically landed both in the repo root and in
``benchmarks/artifacts/``; both locations are scanned (and ``repro
bench run`` now defaults to ``benchmarks/artifacts/``).
"""

from __future__ import annotations

import glob
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.obs.compare import MetricDelta, load_metrics, metric_delta
from repro.utils.ascii_plot import sparkline
from repro.utils.tables import Table

__all__ = [
    "INDEX_SCHEMA",
    "INDEX_FILE",
    "DEFAULT_BENCH_DIRS",
    "build_index",
    "write_index",
    "load_index",
    "render_index",
    "bench_trajectory",
    "TrendResult",
    "compute_trend",
    "render_trend",
    "trend_to_json",
]

#: Schema tag of ``runs/index.jsonl``; bump on breaking changes.
INDEX_SCHEMA = "repro.index/1"

#: Index file name, under the runs directory.
INDEX_FILE = "index.jsonl"

#: Where ``BENCH_*.json`` trajectory points may live (both are scanned;
#: the repo root holds pre-PR-7 artifacts, new ones default to
#: ``benchmarks/artifacts``).
DEFAULT_BENCH_DIRS = (".", "benchmarks/artifacts")


def _scan_runs(runs_dir: str) -> list[dict]:
    entries: list[dict] = []
    if not os.path.isdir(runs_dir):
        return entries
    for name in sorted(os.listdir(runs_dir)):
        path = os.path.join(runs_dir, name)
        meta_path = os.path.join(path, "meta.json")
        if not os.path.isdir(path):
            continue
        if not (
            os.path.exists(meta_path)
            or os.path.exists(os.path.join(path, "events.jsonl"))
        ):
            continue
        entry: dict = {"type": "run", "path": path}
        try:
            with open(meta_path) as f:
                meta = json.load(f)
        except (OSError, json.JSONDecodeError):
            meta = {}
        if not isinstance(meta, dict):
            meta = {}
        for key in ("status", "started_at", "duration_s", "git_rev"):
            if key in meta:
                entry[key] = meta[key]
        if "series" in meta:
            entry["series"] = len(meta["series"])
        ts = meta.get("timeseries")
        if isinstance(ts, dict):
            entry["points"] = int(sum(ts.values()))
            workers = {
                key.rsplit("#w", 1)[1]
                for key in ts
                if "#w" in key and key.rsplit("#w", 1)[1].isdigit()
            }
            if workers:
                entry["workers"] = len(workers)
        if "monitor_events" in meta:
            entry["monitor_events"] = meta["monitor_events"]
        entries.append(entry)
    return entries


def _scan_benches(bench_dirs: tuple[str, ...] | list[str]) -> list[dict]:
    entries: list[dict] = []
    seen: set[str] = set()
    for d in bench_dirs:
        for path in sorted(glob.glob(os.path.join(d, "BENCH_*.json"))):
            norm = os.path.normpath(path)
            if norm in seen:
                continue
            seen.add(norm)
            entry: dict = {"type": "bench", "path": norm}
            try:
                with open(path) as f:
                    payload = json.load(f)
            except (OSError, json.JSONDecodeError):
                entry["error"] = "unreadable"
                entries.append(entry)
                continue
            if not str(payload.get("schema", "")).startswith("repro.bench/"):
                continue
            for key in ("created_at", "git_rev"):
                if key in payload:
                    entry[key] = payload[key]
            config = payload.get("config") or {}
            if config.get("filter") is not None:
                entry["filter"] = config["filter"]
            benches = payload.get("benches") or []
            entry["benches"] = len(benches)
            entry["errors"] = sum(
                1 for b in benches if b.get("status") == "error"
            )
            entries.append(entry)
    return entries


def build_index(
    *,
    runs_dir: str = "runs",
    bench_dirs: tuple[str, ...] | list[str] = DEFAULT_BENCH_DIRS,
) -> list[dict]:
    """Scan the disk into index entries (runs first, then bench points)."""
    return _scan_runs(runs_dir) + _scan_benches(bench_dirs)


def write_index(
    entries: list[dict], *, runs_dir: str = "runs"
) -> str:
    """Persist *entries* to ``<runs_dir>/index.jsonl``; returns the path."""
    os.makedirs(runs_dir, exist_ok=True)
    path = os.path.join(runs_dir, INDEX_FILE)
    with open(path, "w") as f:
        header = {
            "type": "header",
            "schema": INDEX_SCHEMA,
            "built_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "entries": len(entries),
        }
        f.write(json.dumps(header, separators=(",", ":")) + "\n")
        for e in entries:
            f.write(json.dumps(e, separators=(",", ":"), sort_keys=True) + "\n")
    return path


def load_index(
    *,
    runs_dir: str = "runs",
    bench_dirs: tuple[str, ...] | list[str] = DEFAULT_BENCH_DIRS,
    rebuild: bool = False,
) -> list[dict]:
    """Read ``<runs_dir>/index.jsonl``, rebuilding from disk when absent.

    The index is a cache: pass *rebuild* (or delete the file) to rescan.
    Corrupt lines are skipped, matching every other artifact reader.
    """
    path = os.path.join(runs_dir, INDEX_FILE)
    if rebuild or not os.path.exists(path):
        return build_index(runs_dir=runs_dir, bench_dirs=bench_dirs)
    entries: list[dict] = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and record.get("type") in (
                "run", "bench",
            ):
                entries.append(record)
    return entries


def render_index(entries: list[dict]) -> str:
    """Human-readable view of the index (runs table + bench table)."""
    parts: list[str] = []
    runs = [e for e in entries if e.get("type") == "run"]
    benches = [e for e in entries if e.get("type") == "bench"]
    if runs:
        t = Table(
            ["run", "status", "started", "dur s", "points", "workers",
             "monitors"],
            title=f"run artifacts ({len(runs)})",
        )
        for e in runs:
            t.add_row([
                e["path"], e.get("status", "?"),
                (e.get("started_at") or "?")[:19],
                e.get("duration_s", ""), e.get("points", ""),
                e.get("workers", ""), e.get("monitor_events", ""),
            ])
        parts.append(t.render())
    if benches:
        t = Table(
            ["artifact", "created", "git rev", "filter", "benches", "errors"],
            title=f"bench trajectory points ({len(benches)})",
        )
        for e in sorted(benches, key=lambda x: x.get("created_at", "")):
            t.add_row([
                e["path"], (e.get("created_at") or "?")[:19],
                (e.get("git_rev") or "?")[:10], e.get("filter", ""),
                e.get("benches", ""), e.get("errors", ""),
            ])
        parts.append(t.render())
    if not parts:
        return "(no runs or bench artifacts found)"
    return "\n\n".join(parts)


# -- the perf trajectory ------------------------------------------------------


@dataclass
class TrajectoryPoint:
    """One bench artifact on the trajectory, with its flattened metrics."""

    path: str
    created_at: str
    git_rev: str | None
    metrics: dict[str, list[float]] = field(default_factory=dict)


def bench_trajectory(
    bench_dirs: tuple[str, ...] | list[str] = DEFAULT_BENCH_DIRS,
) -> list[TrajectoryPoint]:
    """Every readable bench artifact, oldest first (by ``created_at``)."""
    points: list[TrajectoryPoint] = []
    for e in _scan_benches(bench_dirs):
        if "error" in e:
            continue
        try:
            metrics = load_metrics(e["path"])
        except (ValueError, OSError):
            continue
        points.append(TrajectoryPoint(
            path=e["path"],
            created_at=e.get("created_at", ""),
            git_rev=e.get("git_rev"),
            metrics=metrics,
        ))
    points.sort(key=lambda p: p.created_at)
    return points


@dataclass
class MetricTrend(MetricDelta):
    """One metric's trajectory: the :class:`~repro.obs.compare.MetricDelta`
    of the head artifact (B) against the pooled trailing window (A),
    plus the per-artifact means, oldest first (NaN = absent)."""

    means: list[float] = field(default_factory=list)


@dataclass
class TrendResult:
    """The full trajectory view (see :func:`compute_trend`)."""

    points: list[TrajectoryPoint]
    metric: str | None
    trends: list[MetricTrend] = field(default_factory=list)
    window: int = 3
    threshold: float = 0.05

    @property
    def has_regression(self) -> bool:
        return any(t.verdict == "regressed" for t in self.trends)


def compute_trend(
    *,
    metric: str | None = None,
    bench_dirs: tuple[str, ...] | list[str] = DEFAULT_BENCH_DIRS,
    window: int = 3,
    threshold: float = 0.05,
    n_boot: int = 2000,
    seed: int = 0,
) -> TrendResult:
    """Assemble the trajectory and the head-vs-trailing-window drift.

    For each metric present in the head (newest) artifact, the trailing
    window pools the samples of up to *window* immediately preceding
    artifacts that carry the metric; drift is then the same bootstrap
    mean-delta CI + threshold verdict as ``obs diff`` — but against the
    pooled window, so one noisy predecessor cannot mask (or fake) a
    trajectory-wide regression.
    """
    points = bench_trajectory(bench_dirs)
    result = TrendResult(
        points=points, metric=metric, window=window, threshold=threshold
    )
    if not points:
        return result
    head = points[-1]
    names = sorted(head.metrics) if metric is None else [metric]
    for name in names:
        trail_samples: list[float] = []
        contributing = 0
        for p in reversed(points[:-1]):
            if contributing >= window:
                break
            if name in p.metrics:
                trail_samples.extend(p.metrics[name])
                contributing += 1
        means = [
            float(np.mean(p.metrics[name])) if name in p.metrics else float("nan")
            for p in points
        ]
        # A metric without history (or, asked by name, absent from the
        # head) is verdict "new"; its trajectory still renders.
        delta = metric_delta(
            name, trail_samples, head.metrics.get(name, []),
            threshold=threshold, n_boot=n_boot, seed=seed,
        )
        result.trends.append(MetricTrend(**vars(delta), means=means))
    return result


def render_trend(result: TrendResult) -> str:
    """The trajectory table: one artifact per column tick, spark + verdict."""
    if not result.points:
        return "(no bench artifacts found — run 'repro bench run' first)"
    parts: list[str] = []
    t = Table(
        ["#", "artifact", "created", "git rev"],
        title=f"perf trajectory ({len(result.points)} artifacts, oldest first)",
    )
    for i, p in enumerate(result.points):
        t.add_row([i, os.path.basename(p.path), p.created_at[:19],
                   (p.git_rev or "?")[:10]])
    parts.append(t.render())
    shown = result.trends
    if result.metric is None:
        # Whole-trajectory mode: only metrics with >= 2 artifacts of
        # history render (a spark of one point says nothing).
        shown = [
            tr for tr in shown
            if sum(1 for m in tr.means if m == m) >= 2
        ]
    if not shown:
        parts.append(
            "(no metric appears in two or more artifacts"
            + (f"; metric {result.metric!r} not found" if result.metric else "")
            + ")"
        )
        return "\n\n".join(parts)
    t = Table(
        ["metric", "trajectory", "head", "trail mean", "delta %", "verdict"],
        title=(
            f"head vs trailing window of {result.window} "
            f"(threshold {100 * result.threshold:.0f}%, lower is better)"
        ),
    )
    for tr in shown:
        finite = [m for m in tr.means if m == m]
        spark = sparkline(finite) if finite else ""
        pct = f"{100 * tr.pct:+.1f}%" if tr.pct is not None else "n/a"
        mark = {"improved": "improved ✓", "regressed": "REGRESSED ✗",
                "new": "new"}.get(tr.verdict, "unchanged")
        head = f"{tr.mean_b:.4g}" if tr.mean_b == tr.mean_b else "-"
        trail = f"{tr.mean_a:.4g}" if tr.mean_a == tr.mean_a else "-"
        t.add_row([tr.name, spark, head, trail, pct, mark])
    parts.append(t.render())
    counts = {"improved": 0, "regressed": 0, "unchanged": 0, "new": 0}
    for tr in shown:
        counts[tr.verdict] = counts.get(tr.verdict, 0) + 1
    parts.append(
        f"{len(shown)} metric(s): {counts['improved']} improved, "
        f"{counts['regressed']} regressed, {counts['unchanged']} unchanged, "
        f"{counts['new']} without history"
    )
    return "\n\n".join(parts)


def trend_to_json(result: TrendResult) -> dict:
    """Machine-readable trajectory (the ``--json`` output)."""
    return {
        "schema": "repro.trend/1",
        "window": result.window,
        "threshold": result.threshold,
        "has_regression": result.has_regression,
        "artifacts": [
            {"path": p.path, "created_at": p.created_at, "git_rev": p.git_rev}
            for p in result.points
        ],
        "metrics": [
            {
                "name": tr.name,
                "means": [None if m != m else m for m in tr.means],
                "head_mean": None if tr.mean_b != tr.mean_b else tr.mean_b,
                "trail_mean": None if tr.mean_a != tr.mean_a else tr.mean_a,
                "delta": None if tr.delta != tr.delta else tr.delta,
                "pct": tr.pct,
                "ci95": list(tr.ci) if tr.ci else None,
                "verdict": tr.verdict,
                "n_head": tr.n_b,
                "n_trail": tr.n_a,
            }
            for tr in result.trends
        ],
    }

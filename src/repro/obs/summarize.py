"""Human-readable report over a recorded run artifact.

``python -m repro obs summarize runs/demo`` renders:

* a header from ``meta.json`` (experiment, scale, seed, git rev,
  duration, status);
* a stage-timing table aggregating span events by name (count, total,
  mean, max, share of the observed wall clock);
* one ASCII sparkline per recorded time series (max load, TV distance,
  coalescence fraction, …) with its range, reusing
  :func:`repro.utils.ascii_plot.sparkline`;
* the probe timeseries (``timeseries.jsonl``, when the run had
  ``--probe-every``) — one sparkline per probe series over its
  headline stat, at most ``SPARK_WIDTH`` columns wide — and any fired
  recovery-monitor events with their paper-bound verdicts;
* the headline counters from the final metrics snapshot;
* a profile-hotspots table when the run was profiled (``--profile``
  emits ``{"type": "profile"}`` events, see :mod:`repro.obs.profile`).

Partial artifacts (a run killed mid-flight: truncated ``events.jsonl``,
missing final metrics snapshot, zero spans) render as a partial report
with a leading warning line instead of raising.
"""

from __future__ import annotations

from repro.obs.recorder import RunArtifact, load_run
from repro.utils.ascii_plot import sparkline
from repro.utils.tables import Table

__all__ = ["summarize_run", "render_artifact"]

#: Sparkline columns per series; longer series bucket to their maxima.
SPARK_WIDTH = 60


def _stage_table(artifact: RunArtifact) -> Table | None:
    spans = artifact.spans
    if not spans:
        return None
    agg: dict[str, dict] = {}
    for s in spans:
        a = agg.setdefault(
            s["name"], {"count": 0, "total": 0.0, "max": 0.0, "depth": s.get("depth", 0)}
        )
        a["count"] += 1
        a["total"] += float(s["dur_s"])
        a["max"] = max(a["max"], float(s["dur_s"]))
        a["depth"] = min(a["depth"], s.get("depth", 0))
    # Share is measured against the top-level spans only, so nested
    # stages do not double-count the denominator.
    top_total = sum(
        float(s["dur_s"]) for s in spans if s.get("depth", 0) == 0
    ) or sum(a["total"] for a in agg.values())
    t = Table(
        ["stage", "count", "total s", "mean s", "max s", "share"],
        title="stage timings (aggregated spans)",
    )
    for name, a in sorted(agg.items(), key=lambda kv: -kv[1]["total"]):
        label = "  " * a["depth"] + name
        share = a["total"] / top_total if top_total else 0.0
        t.add_row(
            [label, a["count"], a["total"], a["total"] / a["count"], a["max"],
             f"{100.0 * share:.1f}%"]
        )
    return t


def _series_table(artifact: RunArtifact) -> Table | None:
    series = artifact.series
    if not series:
        return None
    t = Table(
        ["series", "samples", "first", "last", "min", "max", "trend"],
        title="convergence traces",
    )
    for name, (steps, values) in sorted(series.items()):
        t.add_row(
            [name, len(values), values[0], values[-1], min(values), max(values),
             sparkline(values, width=SPARK_WIDTH)]
        )
    return t


def _timeseries_table(artifact: RunArtifact) -> Table | None:
    points = artifact.points
    if not points:
        return None
    from repro.obs.watch import headline_stat
    from repro.obs.timeseries import stat_track

    t = Table(
        ["series", "points", "stat", "first", "last", "min", "max", "trend"],
        title="probe timeseries (timeseries.jsonl)",
    )
    for name, pts in sorted(points.items()):
        stat = headline_stat(pts)
        if stat is None:
            t.add_row([name, len(pts), "-", "-", "-", "-", "-", ""])
            continue
        _, values = stat_track(pts, stat)
        if not values:
            t.add_row([name, len(pts), stat, "-", "-", "-", "-", ""])
            continue
        t.add_row(
            [name, len(pts), stat, values[0], values[-1], min(values),
             max(values), sparkline(values, width=SPARK_WIDTH)]
        )
    return t


def _monitor_table(artifact: RunArtifact) -> Table | None:
    events = artifact.monitor_events
    if not events:
        return None
    t = Table(
        ["monitor", "series", "step", "value", "threshold", "bound", "verdict"],
        title="recovery-monitor events",
    )
    for e in events:
        if "bound_step" in e:
            verdict = "within bound" if e.get("within_bound") else "OUTSIDE bound"
            bound = e["bound_step"]
        else:
            verdict, bound = "-", "-"
        t.add_row(
            [e.get("monitor", "?"), e.get("series", "?"), e.get("step", "?"),
             e.get("value", "?"), e.get("threshold", "?"), bound, verdict]
        )
    return t


def _profile_table(artifact: RunArtifact) -> Table | None:
    profiles = [e for e in artifact.events if e.get("type") == "profile"]
    if not profiles:
        return None
    latest = profiles[-1]
    t = Table(
        ["function", "calls", "self s", "cum s"],
        title=f"profile hotspots (top self-time; {latest.get('pstats', '?')})",
    )
    for row in latest.get("top", []):
        t.add_row([row.get("func", "?"), row.get("calls", 0),
                   row.get("self_s", 0.0), row.get("cum_s", 0.0)])
    return t


def _certificate_table(artifact: RunArtifact) -> Table | None:
    certs = [e for e in artifact.events if e.get("type") == "certificate"]
    if not certs:
        return None
    t = Table(
        ["status", "certificate", "checked", "violations", "measured vs paper"],
        title="lemma certificates & acceptance battery",
    )
    for e in certs:
        t.add_row(
            [
                "PASS" if e.get("passed") else "FAIL",
                e.get("name", "?"),
                e.get("checked", 0),
                e.get("violations", 0),
                e.get("headline", ""),
            ]
        )
    return t


def _warnings(artifact: RunArtifact) -> list[str]:
    warnings = []
    if artifact.corrupt_lines:
        warnings.append(
            f"warning: skipped {artifact.corrupt_lines} corrupt line(s) in "
            "events.jsonl — the run was likely truncated mid-write"
        )
    if "status" not in artifact.meta:
        warnings.append(
            "warning: meta.json missing or incomplete (no final metrics "
            "snapshot) — the run may not have finished; report is partial"
        )
    return warnings


def render_artifact(artifact: RunArtifact) -> str:
    """Render the full report for an in-memory :class:`RunArtifact`."""
    meta = artifact.meta
    head = [f"run artifact: {artifact.run_dir}"]
    for key in ("experiment_id", "title", "scale", "seed", "verdict", "status",
                "started_at", "duration_s", "git_rev", "python", "numpy"):
        if key in meta:
            head.append(f"  {key}: {meta[key]}")
    if meta.get("status") not in ("ok", "error", "failed"):
        from repro.checkpoint.store import checkpoint_step

        ckpt_step = meta.get("last_checkpoint_step")
        if ckpt_step is None:
            ckpt_step = checkpoint_step(artifact.run_dir)
        if ckpt_step is not None:
            head.append(
                f"  resumable at step {ckpt_step}: "
                f"python -m repro resume {artifact.run_dir}"
            )
    head.extend(f"  {w}" for w in _warnings(artifact))
    parts = ["\n".join(head)]
    certs = _certificate_table(artifact)
    if certs is not None:
        parts.append(certs.render())
    stage = _stage_table(artifact)
    if stage is not None:
        parts.append(stage.render())
    series = _series_table(artifact)
    if series is not None:
        parts.append(series.render())
    timeseries = _timeseries_table(artifact)
    if timeseries is not None:
        parts.append(timeseries.render())
    monitors = _monitor_table(artifact)
    if monitors is not None:
        parts.append(monitors.render())
    profile = _profile_table(artifact)
    if profile is not None:
        parts.append(profile.render())
    counters = meta.get("metrics", {}).get("counters", {})
    if counters:
        t = Table(["counter", "value"], title="counters")
        for name, value in sorted(counters.items()):
            t.add_row([name, value])
        parts.append(t.render())
    if len(parts) == 1:
        parts.append("(no spans, samples, or metrics recorded)")
    return "\n\n".join(parts)


def summarize_run(run_dir: str) -> str:
    """Load *run_dir* and render its timing / convergence report."""
    return render_artifact(load_run(run_dir))

"""Cross-run regression diffs: ``python -m repro obs diff A B``.

Takes two perf sources — ``BENCH_*.json`` artifacts from
:mod:`repro.obs.bench` *or* ``runs/<id>/`` directories from
:class:`~repro.obs.recorder.RunRecorder` — flattens each into named
metric sample sets, and reports per-metric deltas with bootstrap
confidence intervals and a significance verdict.

Metric extraction:

* **bench JSON** — per bench: ``<id>.wall_s`` (the per-round samples,
  so bootstrap works), ``<id>.cpu_s`` (mean), ``<id>.peak_rss_kb``;
* **run dir** — per span name: ``span/<name>.dur_s`` (every span
  occurrence is a sample), per recorded series: ``series/<name>.last``
  (the convergence endpoint), per fired recovery monitor:
  ``monitor/<name>[<series>].step`` (the crossing step — earlier is
  better, like everything else here), plus ``run.duration_s``.

Artifacts with missing or empty resource sections (RSS/CPU samples)
are tolerated: absent metrics are simply not emitted on that side and
show up under "only in A/B" instead of fabricating zero samples.

All metrics are lower-is-better (times, memory).  A metric is
**regressed**/**improved** only when the bootstrap 95% CI of the mean
delta excludes zero *and* the relative change clears ``threshold``;
otherwise **unchanged**.  Single-sample metrics can never be
significant — they are reported with their delta but verdict
``unchanged``, which keeps ``--fail-on-regression`` honest.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.obs.recorder import load_run
from repro.utils.tables import Table

__all__ = [
    "MetricDelta",
    "CompareResult",
    "load_metrics",
    "bootstrap_delta_ci",
    "metric_delta",
    "compare_paths",
    "render_compare",
    "compare_to_json",
]


def load_metrics(path: str) -> dict[str, list[float]]:
    """Flatten a bench JSON or run directory into ``name -> samples``."""
    if os.path.isdir(path):
        return _metrics_from_run(path)
    with open(path) as f:
        payload = json.load(f)
    schema = payload.get("schema", "")
    if not str(schema).startswith("repro.bench/"):
        raise ValueError(
            f"{path!r} is neither a run directory nor a repro.bench artifact "
            f"(schema={schema!r})"
        )
    out: dict[str, list[float]] = {}
    for b in payload.get("benches", []):
        if b.get("status") != "ok":
            continue
        # Resource series are optional: the sampler thread can observe
        # nothing on very short benches, and artifacts from stripped
        # environments omit RSS/CPU entirely.  Emit only what exists —
        # fabricating 0.0 samples here used to poison diffs with fake
        # "regressions" against the real side.
        wall = b.get("wall_s") or {}
        samples = [float(v) for v in wall.get("samples") or []]
        if not samples and "mean" in wall:
            samples = [float(wall["mean"])]
        if samples:
            out[f"{b['id']}.wall_s"] = samples
        cpu = b.get("cpu_s") or {}
        if "mean" in cpu:
            out[f"{b['id']}.cpu_s"] = [float(cpu["mean"])]
        if b.get("peak_rss_kb"):
            out[f"{b['id']}.peak_rss_kb"] = [float(b["peak_rss_kb"])]
    return out


def _metrics_from_run(run_dir: str) -> dict[str, list[float]]:
    art = load_run(run_dir)
    out: dict[str, list[float]] = {}
    for s in art.spans:
        out.setdefault(f"span/{s['name']}.dur_s", []).append(float(s["dur_s"]))
    for name, (_, values) in sorted(art.series.items()):
        if values:
            out[f"series/{name}.last"] = [values[-1]]
    for e in art.monitor_events:
        if "step" in e:
            key = f"monitor/{e.get('monitor', '?')}[{e.get('series', '?')}].step"
            out.setdefault(key, []).append(float(e["step"]))
    dur = art.meta.get("duration_s")
    if dur is not None:
        out["run.duration_s"] = [float(dur)]
    return out


def bootstrap_delta_ci(
    a: Sequence[float],
    b: Sequence[float],
    *,
    n_boot: int = 2000,
    seed: int = 0,
    alpha: float = 0.05,
) -> tuple[float, float] | None:
    """Bootstrap CI for ``mean(b) - mean(a)``; None when either side has < 2 samples."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        return None
    rng = np.random.default_rng(seed)
    means_a = rng.choice(a, size=(n_boot, a.size), replace=True).mean(axis=1)
    means_b = rng.choice(b, size=(n_boot, b.size), replace=True).mean(axis=1)
    deltas = means_b - means_a
    lo, hi = np.quantile(deltas, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lo), float(hi)


@dataclass
class MetricDelta:
    """One metric's A-vs-B comparison."""

    name: str
    mean_a: float
    mean_b: float
    n_a: int
    n_b: int
    delta: float
    pct: float | None  # None when mean_a == 0
    ci: tuple[float, float] | None
    verdict: str  # improved | regressed | unchanged | new (a side has no samples)
    significant: bool


@dataclass
class CompareResult:
    """Full diff of two perf sources."""

    path_a: str
    path_b: str
    threshold: float
    deltas: list[MetricDelta] = field(default_factory=list)
    only_a: list[str] = field(default_factory=list)
    only_b: list[str] = field(default_factory=list)

    @property
    def has_regression(self) -> bool:
        return any(d.verdict == "regressed" for d in self.deltas)


def _verdict(
    delta: float, pct: float | None, ci: tuple[float, float] | None, threshold: float
) -> tuple[str, bool]:
    significant = (
        ci is not None
        and (ci[0] > 0.0 or ci[1] < 0.0)
        and pct is not None
        and abs(pct) >= threshold
    )
    if not significant:
        return "unchanged", False
    return ("regressed" if delta > 0 else "improved"), True


def metric_delta(
    name: str,
    a: Sequence[float],
    b: Sequence[float],
    *,
    threshold: float = 0.05,
    n_boot: int = 2000,
    seed: int = 0,
) -> MetricDelta:
    """One metric's A-vs-B row: mean delta, bootstrap CI and verdict.

    An empty side has nothing to compare against: the row is verdict
    ``new`` (NaN delta, no CI).
    """
    mean_a, mean_b = _mean(a), _mean(b)
    if not len(a) or not len(b):
        return MetricDelta(
            name=name, mean_a=mean_a, mean_b=mean_b, n_a=len(a), n_b=len(b),
            delta=float("nan"), pct=None, ci=None, verdict="new", significant=False,
        )
    delta = mean_b - mean_a
    pct = delta / mean_a if mean_a != 0.0 else None
    ci = bootstrap_delta_ci(a, b, n_boot=n_boot, seed=seed)
    verdict, significant = _verdict(delta, pct, ci, threshold)
    return MetricDelta(
        name=name, mean_a=mean_a, mean_b=mean_b, n_a=len(a), n_b=len(b),
        delta=delta, pct=pct, ci=ci, verdict=verdict, significant=significant,
    )


def _mean(samples: Sequence[float]) -> float:
    return float(np.mean(samples)) if len(samples) else float("nan")


def compare_paths(
    path_a: str,
    path_b: str,
    *,
    threshold: float = 0.05,
    n_boot: int = 2000,
    seed: int = 0,
) -> CompareResult:
    """Diff two bench artifacts / run dirs (lower is better for every metric)."""
    metrics_a = load_metrics(path_a)
    metrics_b = load_metrics(path_b)
    result = CompareResult(path_a=path_a, path_b=path_b, threshold=threshold)
    result.only_a = sorted(set(metrics_a) - set(metrics_b))
    result.only_b = sorted(set(metrics_b) - set(metrics_a))
    for name in sorted(set(metrics_a) & set(metrics_b)):
        result.deltas.append(metric_delta(
            name, metrics_a[name], metrics_b[name],
            threshold=threshold, n_boot=n_boot, seed=seed,
        ))
    return result


def render_compare(result: CompareResult) -> str:
    """Human-readable diff table (A = baseline, B = candidate)."""
    t = Table(
        ["metric", "A mean", "B mean", "delta", "delta %", "CI95(delta)", "verdict"],
        title=(
            f"perf diff: A={result.path_a}  vs  B={result.path_b}  "
            f"(threshold {100 * result.threshold:.0f}%, lower is better)"
        ),
    )
    for d in result.deltas:
        pct = f"{100 * d.pct:+.1f}%" if d.pct is not None else "n/a"
        ci = f"[{d.ci[0]:+.3g}, {d.ci[1]:+.3g}]" if d.ci else "n/a (n<2)"
        mark = {"improved": "improved ✓", "regressed": "REGRESSED ✗"}.get(
            d.verdict, "unchanged"
        )
        t.add_row([d.name, d.mean_a, d.mean_b, f"{d.delta:+.3g}", pct, ci, mark])
    parts = [t.render()]
    counts = {"improved": 0, "regressed": 0, "unchanged": 0}
    for d in result.deltas:
        counts[d.verdict] += 1
    parts.append(
        f"{len(result.deltas)} metric(s): {counts['improved']} improved, "
        f"{counts['regressed']} regressed, {counts['unchanged']} unchanged"
    )
    if result.only_a:
        parts.append(f"only in A ({len(result.only_a)}): {', '.join(result.only_a[:8])}")
    if result.only_b:
        parts.append(f"only in B ({len(result.only_b)}): {', '.join(result.only_b[:8])}")
    return "\n".join(parts)


def compare_to_json(result: CompareResult) -> dict:
    """Machine-readable diff (the ``--json`` output)."""
    return {
        "schema": "repro.diff/1",
        "a": result.path_a,
        "b": result.path_b,
        "threshold": result.threshold,
        "has_regression": result.has_regression,
        "only_a": result.only_a,
        "only_b": result.only_b,
        "metrics": [
            {
                "name": d.name,
                "mean_a": d.mean_a,
                "mean_b": d.mean_b,
                "n_a": d.n_a,
                "n_b": d.n_b,
                "delta": d.delta,
                "pct": d.pct,
                "ci95": list(d.ci) if d.ci else None,
                "verdict": d.verdict,
                "significant": d.significant,
            }
            for d in result.deltas
        ],
    }

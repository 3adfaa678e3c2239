"""Per-step chain probes and paper-envelope recovery monitors.

The run-level obs stack (spans, counters, checkpoint samples) tells us
*that* a sweep ran; the probes here watch the chain *while it mixes*.
An engine whose ``run()`` executes under :func:`repro.obs.observe_run`
with ``probe_every=k > 0`` hands its state to a probe every k-th step;
the probe folds the observation into streaming estimators
(:mod:`repro.obs.streamstats`) and emits one ``timeseries.jsonl``
point via :func:`repro.obs.runtime.record_point`.

With probes off (the default, ``probe_interval() == 0``) none of this
is reached — the engines' disabled fast paths are untouched, and their
observed paths only add one integer check per ``run()`` call
(``benchmarks/bench_obs.py`` gates the ratio).

**Recovery monitors** ride on the probes: one-shot threshold crossings
against paper-derived envelopes.  Each fires at most once, emitting a
``{"type": "monitor", ...}`` event into *both* run streams with the
observed crossing step, the paper's bound step, and whether the
crossing landed within the bound:

* max-load recovery vs Theorem 1's τ(ε) = ⌈m·ln(m/ε)⌉
  (:func:`max_load_recovery_monitor`);
* RBB self-stabilization to the O(log n) max-load band vs the
  linear-rounds envelope of Becchetti et al.
  (:func:`rbb_recovery_monitor`, driven by the synchronous engines);
* exact-chain TV distance to ``markov.stationary`` vs ε
  (:func:`tv_recovery_monitor`, driven by ``ExactEngine.evolve``);
* coalescence detection in the grand couplings
  (:func:`coalescence_monitor`, driven by ``coupling/grand.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.obs import runtime
from repro.obs.streamstats import ExpHistogram, Extrema, P2Quantile, Welford

__all__ = [
    "ThresholdMonitor",
    "ChainProbe",
    "FleetProbe",
    "DistributionProbe",
    "probe_cut",
    "max_load_recovery_monitor",
    "rbb_recovery_monitor",
    "rbb_recovery_bound",
    "tv_recovery_monitor",
    "coalescence_monitor",
    "recovery_target",
]


def recovery_target(n: int, m: int) -> int:
    """The default "recovered" max-load envelope: ⌈m/n⌉ + ⌈log₂ n⌉.

    The balanced level plus a logarithmic slack — comfortably above the
    stationary Θ(log n / log log n)-type typical max loads the paper's
    processes contract to, while far below the crash states (all-in-one
    has max load m) the recovery experiments start from.
    """
    if n < 1 or m < 0:
        raise ValueError(f"need n >= 1 and m >= 0, got n={n}, m={m}")
    return int(math.ceil(m / n)) + max(1, math.ceil(math.log2(max(2, n))))


def probe_cut(step: int, limit: int, every: int) -> int:
    """Largest segment end ≤ *limit* that does not run past a probe boundary.

    Batched engine loops (``VectorizedProcess.run_batched`` and the
    batched ``recovery_times``) advance many phases per Python call;
    cutting each segment at the next decimation boundary — the next
    step with ``step % every == 0`` — keeps probe emissions bitwise
    identical to stepping one phase at a time.  With probes off
    (*every* ≤ 0) the limit stands.
    """
    if every <= 0:
        return limit
    return min(limit, step + every - step % every)


class ThresholdMonitor:
    """One-shot monitor: fires when the watched value first drops to a threshold.

    ``observe(step, value)`` emits (and returns) a single monitor event
    the first time ``value <= threshold``; afterwards it is inert.  The
    event carries the paper's predicted *bound_step* (when given) and a
    ``within_bound`` verdict — the acceptance criterion the experiments
    and the watch view read off directly.
    """

    __slots__ = ("monitor", "series", "threshold", "bound_step", "extra", "fired")

    def __init__(
        self,
        monitor: str,
        series: str,
        threshold: float,
        *,
        bound_step: int | None = None,
        extra: dict | None = None,
    ):
        self.monitor = monitor
        self.series = series
        self.threshold = float(threshold)
        self.bound_step = None if bound_step is None else int(bound_step)
        self.extra = dict(extra or {})
        self.fired = False

    def observe(self, step: int, value: float) -> dict | None:
        """Check one observation; emits the crossing event exactly once."""
        if self.fired or float(value) > self.threshold:
            return None
        self.fired = True
        event = {
            "monitor": self.monitor,
            "series": self.series,
            "step": int(step),
            "value": float(value),
            "threshold": self.threshold,
        }
        if self.bound_step is not None:
            event["bound_step"] = self.bound_step
            event["within_bound"] = int(step) <= self.bound_step
        event.update(self.extra)
        runtime.record_monitor(event)
        return event

    def state_dict(self) -> dict:
        """Checkpoint state: the one-shot flag plus the envelope config.

        The envelope rides along because open systems pin it to the
        ball count at probe *creation* — a freshly constructed monitor
        on resume would otherwise re-derive it from drifted state.
        """
        return {
            "fired": self.fired,
            "threshold": self.threshold,
            "bound_step": self.bound_step,
            # Pairs, not a dict: the checkpoint JSON sorts object keys,
            # and the emission order of ``extra`` must survive a resume
            # for the byte-identical-artifact invariant to hold.
            "extra": [[k, v] for k, v in self.extra.items()],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.fired = bool(state["fired"])
        if "threshold" in state:
            self.threshold = float(state["threshold"])
            bound = state.get("bound_step")
            self.bound_step = None if bound is None else int(bound)
            self.extra = dict(state.get("extra") or {})


def max_load_recovery_monitor(
    series: str, n: int, m: int, *, eps: float = 0.25
) -> ThresholdMonitor:
    """Max-load recovery vs the Theorem 1 envelope.

    Fires when the observed max load first reaches
    :func:`recovery_target`; the bound step is Theorem 1's
    τ(ε) = ⌈m·ln(m/ε)⌉ when m ≥ 2 (the theorem's domain), else absent.
    """
    from repro.coupling.recovery import theorem1_bound

    bound = theorem1_bound(m, eps) if m >= 2 else None
    return ThresholdMonitor(
        "max_load_recovery",
        series,
        recovery_target(n, m),
        bound_step=bound,
        extra={"n": int(n), "m": int(m), "eps": float(eps)},
    )


def rbb_recovery_bound(n: int, m: int, *, c: int = 64) -> int:
    """A generous Becchetti-style self-stabilization envelope: c·(n + m).

    Becchetti et al. prove uniform RBB reaches O(log n) max load from
    *any* legal state within O(n) rounds w.h.p. (for m = Θ(n)); the
    constant c keeps the envelope honest at the small sizes the verify
    battery runs while scaling linearly like the theorem.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    return int(c) * (int(n) + int(m))


def rbb_recovery_monitor(series: str, n: int, m: int) -> ThresholdMonitor:
    """RBB self-stabilization: max load down to the O(log n) band.

    Fires when the observed max load first reaches
    :func:`recovery_target` (⌈m/n⌉ + ⌈log₂ n⌉ — the O(log n) band of
    Becchetti et al. at the balanced level); the bound step is the
    linear-rounds envelope of :func:`rbb_recovery_bound`.
    """
    return ThresholdMonitor(
        "rbb_recovery",
        series,
        recovery_target(n, m),
        bound_step=rbb_recovery_bound(n, m),
        extra={"n": int(n), "m": int(m)},
    )


def tv_recovery_monitor(
    series: str, eps: float = 0.25, *, bound_step: int | None = None
) -> ThresholdMonitor:
    """TV-to-stationarity recovery: fires when d_TV(μ_t, π) first ≤ ε.

    The step at which this fires on an exactly-evolved distribution *is*
    the chain's mixing time from that start — pass the paper bound (or
    ``markov.mixing.exact_mixing_time``) as *bound_step* to get the
    within-bound verdict on the event.
    """
    return ThresholdMonitor(
        "tv_recovery", series, eps, bound_step=bound_step, extra={"eps": float(eps)}
    )


def coalescence_monitor(
    series: str, *, bound_step: int | None = None, extra: dict | None = None
) -> ThresholdMonitor:
    """Coalescence detection: fires when the coupling distance first hits 0."""
    return ThresholdMonitor(
        "coalescence", series, 0.0, bound_step=bound_step, extra=extra
    )


class ChainProbe:
    """Telemetry for one scalar trajectory (a descending load vector).

    Each ``observe(step, loads)`` snapshot records the instantaneous
    shape of the state — max load, gap over the balanced level, the L2
    imbalance ‖v − m/n‖₂, nonempty-bin count — plus the streaming
    summaries accumulated so far: Welford mean/std of the max load, its
    P² 0.9-quantile, and the exponential load histogram over every
    (bin, step) observation.  Monitors see the max load.
    """

    __slots__ = ("series", "monitors", "max_stats", "max_extrema", "max_p90", "hist")

    def __init__(self, series: str, monitors: tuple = ()):
        self.series = series
        self.monitors = tuple(monitors)
        self.max_stats = Welford()
        self.max_extrema = Extrema()
        self.max_p90 = P2Quantile(0.9)
        self.hist = ExpHistogram()

    def observe(self, step: int, loads: np.ndarray) -> None:
        """Fold one decimated state snapshot in and emit a point."""
        v = loads
        n = v.shape[0]
        m = float(v.sum())
        mean = m / n
        vmax = float(v[0])
        self.max_stats.update(vmax)
        self.max_extrema.update(vmax)
        self.max_p90.update(vmax)
        self.hist.update(v)
        stats = {
            "max": int(vmax),
            "gap": vmax - mean,
            "l2": float(np.sqrt(((v - mean) ** 2).sum())),
            "nonempty": int(np.count_nonzero(v)),
            "max_mean": self.max_stats.mean,
            "max_std": self.max_stats.std,
            "max_p90": self.max_p90.value,
            "hist": {str(k): c for k, c in self.hist.nonzero().items()},
        }
        runtime.record_point(self.series, step, stats)
        for mon in self.monitors:
            mon.observe(step, vmax)

    def state_dict(self) -> dict:
        """Full estimator + monitor state for checkpoint/resume."""
        return {
            "max_stats": self.max_stats.state_dict(),
            "max_extrema": self.max_extrema.state_dict(),
            "max_p90": self.max_p90.state_dict(),
            "hist": self.hist.state_dict(),
            "monitors": [m.state_dict() for m in self.monitors],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (same monitor layout)."""
        self.max_stats.load_state(state["max_stats"])
        self.max_extrema.load_state(state["max_extrema"])
        self.max_p90.load_state(state["max_p90"])
        self.hist.load_state(state["hist"])
        for mon, mstate in zip(self.monitors, state["monitors"]):
            mon.load_state(mstate)


class FleetProbe:
    """Telemetry for a vectorized fleet, read off its (R,) max-load column.

    Snapshots summarize the max loads across replicas (fleet max /
    mean / std / P² 0.9-quantile of the *running* per-replica stream)
    and the running cross-step Welford of the fleet mean.  Monitors see
    the fleet max — they fire only once *every* replica is inside the
    envelope, the natural whole-fleet recovery notion.
    """

    __slots__ = ("series", "monitors", "mean_stats", "max_p90", "hist")

    def __init__(self, series: str, monitors: tuple = ()):
        self.series = series
        self.monitors = tuple(monitors)
        self.mean_stats = Welford()
        self.max_p90 = P2Quantile(0.9)
        self.hist = ExpHistogram()

    def observe(self, step: int, col: np.ndarray) -> None:
        """Fold one decimated snapshot of the per-replica max loads in."""
        fleet_max = float(col.max())
        fleet_mean = float(col.mean())
        self.mean_stats.update(fleet_mean)
        self.max_p90.update_many(col.astype(np.float64))
        self.hist.update(col)
        stats = {
            "max": int(fleet_max),
            "mean": fleet_mean,
            "std": float(col.std()),
            "max_p90": self.max_p90.value,
            "mean_run": self.mean_stats.mean,
            "hist": {str(k): c for k, c in self.hist.nonzero().items()},
        }
        runtime.record_point(self.series, step, stats)
        for mon in self.monitors:
            mon.observe(step, fleet_max)

    def state_dict(self) -> dict:
        """Full estimator + monitor state for checkpoint/resume."""
        return {
            "mean_stats": self.mean_stats.state_dict(),
            "max_p90": self.max_p90.state_dict(),
            "hist": self.hist.state_dict(),
            "monitors": [m.state_dict() for m in self.monitors],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (same monitor layout)."""
        self.mean_stats.load_state(state["mean_stats"])
        self.max_p90.load_state(state["max_p90"])
        self.hist.load_state(state["hist"])
        for mon, mstate in zip(self.monitors, state["monitors"]):
            mon.load_state(mstate)


class DistributionProbe:
    """Telemetry for an exactly-evolved distribution μ_t over a finite chain.

    Driven by ``ExactEngine.evolve``: each snapshot records the TV and
    L2 distances of μ_t from the stationary distribution π — the
    quantities the paper's τ(ε) bounds speak about — plus the running
    Welford of the TV decrements.  Monitors see the TV distance.
    """

    __slots__ = ("series", "pi", "monitors", "tv_stats", "_last_tv")

    def __init__(self, series: str, pi: np.ndarray, monitors: tuple = ()):
        self.series = series
        self.pi = np.asarray(pi, dtype=np.float64)
        self.monitors = tuple(monitors)
        self.tv_stats = Welford()
        self._last_tv: float | None = None

    def observe(self, step: int, dist: np.ndarray) -> float:
        """Fold one distribution snapshot in; returns d_TV(μ_t, π)."""
        diff = np.asarray(dist, dtype=np.float64) - self.pi
        tv = 0.5 * float(np.abs(diff).sum())
        self.tv_stats.update(tv)
        stats = {
            "tv": tv,
            "l2": float(np.sqrt((diff**2).sum())),
            "tv_mean": self.tv_stats.mean,
        }
        if self._last_tv is not None:
            stats["tv_decrement"] = self._last_tv - tv
        self._last_tv = tv
        runtime.record_point(self.series, step, stats)
        for mon in self.monitors:
            mon.observe(step, tv)
        return tv

    def state_dict(self) -> dict:
        """Full estimator + monitor state for checkpoint/resume."""
        return {
            "tv_stats": self.tv_stats.state_dict(),
            "last_tv": self._last_tv,
            "monitors": [m.state_dict() for m in self.monitors],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (same monitor layout)."""
        self.tv_stats.load_state(state["tv_stats"])
        last = state["last_tv"]
        self._last_tv = None if last is None else float(last)
        for mon, mstate in zip(self.monitors, state["monitors"]):
            mon.load_state(mstate)

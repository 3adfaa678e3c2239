"""Parallel probed recovery campaigns: ``python -m repro campaign``.

The driver behind the fleet-telemetry demo: a crash-recovery
measurement (§1.1's "how long until the system recovers?") run as an
``observe_run`` artifact with the replica fleet fanned across worker
processes.  Each worker is a telemetry-bus lane
(:mod:`repro.obs.bus`): decimated probe points and recovery-monitor
events stream to the parent recorder live, heartbeats land in
``heartbeats.jsonl``, and ``repro obs watch <run-dir>`` tails the
campaign while it runs — per-worker lanes, a fleet-aggregate track,
stall flags.

Engines and determinism follow
:func:`~repro.analysis.recovery_measure.recovery_times_balls`:
``scalar`` keeps one spawned RNG stream per replica (results identical
at every process count); ``vectorized`` shards the fleet into one
``(R_k, n)`` engine per worker (deterministic per ``(seed,
processes)``).  The finished ``timeseries.jsonl`` is canonicalized at
finalization, so a re-run with the same seed and process count is
byte-identical.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.analysis.recovery_measure import CAMPAIGN_SCENARIOS, campaign_rule
from repro.balls.load_vector import LoadVector
from repro.utils.rng import SeedLike

__all__ = ["run_campaign", "default_campaign_dir"]


def default_campaign_dir(runs_dir: str = "runs") -> str:
    """A fresh ``runs/<stamp>-campaign`` directory name (not created)."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = os.path.join(runs_dir, f"{stamp}-campaign")
    out, k = base, 1
    while os.path.exists(out):
        out = f"{base}-{k}"
        k += 1
    return out


def run_campaign(
    *,
    n: int = 64,
    m: int | None = None,
    d: int = 2,
    scenario: str = "a",
    engine: str = "scalar",
    replicas: int = 8,
    processes: int = 2,
    target: int | None = None,
    max_steps: int = 1_000_000,
    probe_every: int = 50,
    heartbeat_s: float | None = None,
    seed: SeedLike = 0,
    out: str | None = None,
    trace: bool = False,
    save_every: int = 0,
    eps: float = 0.25,
    restart_lost: int = 0,
    batch: int = 1,
) -> dict:
    """Run one observed, parallel crash-recovery campaign.

    Starts every replica from the all-in-one crash state and measures
    the hitting time of max load ≤ *target* (default:
    :func:`~repro.obs.probes.recovery_target`).  Returns a summary dict
    with the run directory, the per-replica times, and the fleet
    quantiles; the full telemetry lives in ``<run_dir>/``.

    ``save_every > 0`` turns on checkpointing (see
    :mod:`repro.checkpoint`): the run commits atomic
    ``checkpoint.json[.npz]`` snapshots every *save_every* steps (per
    completed fleet item for pooled runs) and finalizes a resumable
    artifact on SIGTERM; ``repro resume <run-dir>`` continues it.
    ``engine='exact'`` measures TV-distance recovery of the exact
    distribution (first t with d_TV(μ_t, π) ≤ *eps*) instead of
    sampled hitting times.  *restart_lost* > 0 lets pooled campaigns
    survive that many killed workers by replaying their shards from
    the last fleet checkpoint.  With ``save_every=0`` (the default) a
    non-exact campaign takes the legacy zero-overhead path below.

    Besides the paper's ``'a'``/``'b'``, *scenario* accepts the
    synchronous RBB tokens ``'rbb_uniform'``, ``'rbb_twochoice'`` and
    ``'rbb_walk'`` (``repro campaign --spec rbb_…``); the placement
    rule then follows :func:`~repro.analysis.recovery_measure.campaign_rule`
    and *d* only matters for the two-choice flavors.

    *batch* (``--batch``, vectorized engine only) is the segment length
    of the run-length kernel — same times, same telemetry bytes, same
    checkpoints at every value; a longer segment only means fewer
    Python-level calls (and coarser crash-injection sites).
    """
    if scenario not in CAMPAIGN_SCENARIOS:
        raise ValueError(
            f"scenario must be one of {CAMPAIGN_SCENARIOS}, got {scenario!r}"
        )
    if m is None:
        m = n
    if target is None:
        from repro.obs.probes import recovery_target

        target = recovery_target(n, m)
    run_dir = out or default_campaign_dir()
    if engine == "exact" or save_every > 0:
        from repro.checkpoint.campaign import run_checkpointed_campaign

        config = {
            "n": n,
            "m": m,
            "d": d,
            "scenario": scenario,
            "engine": engine,
            "replicas": replicas,
            "processes": processes,
            "target": int(target),
            "max_steps": max_steps,
            "probe_every": probe_every,
            "heartbeat_s": heartbeat_s,
            "seed": seed if seed is None or isinstance(seed, int) else str(seed),
            "trace": trace,
            "save_every": int(save_every),
            "eps": float(eps),
            "restart_lost": int(restart_lost),
            "batch": int(batch),
        }
        return run_checkpointed_campaign(run_dir, config=config)
    rule = campaign_rule(scenario, d)
    start = LoadVector.all_in_one(m, n)
    meta = {
        "experiment": "campaign",
        "scenario": scenario,
        "engine": engine,
        "n": n,
        "m": m,
        "d": d,
        "replicas": replicas,
        "processes": processes,
        "target_max_load": int(target),
        "seed": seed if seed is None or isinstance(seed, int) else str(seed),
        "steps_total": max_steps,
        "batch": int(batch),
    }
    from repro.analysis.recovery_measure import recovery_times_balls
    from repro.obs.recorder import observe_run

    t0 = time.perf_counter()
    with observe_run(run_dir, meta=meta, trace=trace, probe_every=probe_every):
        times = recovery_times_balls(
            rule,
            n,
            m,
            target,
            scenario=scenario,
            start=start,
            replicas=replicas,
            max_steps=max_steps,
            engine=engine,
            seed=seed,
            processes=processes,
            heartbeat_s=heartbeat_s,
            batch=batch,
        )
    wall_s = time.perf_counter() - t0
    arr = np.asarray(times, dtype=np.int64)
    done = arr[arr >= 0].astype(np.float64)
    return {
        "run_dir": run_dir,
        "target_max_load": int(target),
        "times": arr,
        "capped": int((arr < 0).sum()),
        "median": float(np.median(done)) if done.size else float("nan"),
        "q95": float(np.quantile(done, 0.95)) if done.size else float("nan"),
        "wall_s": wall_s,
        "meta": meta,
        "interrupted": None,
    }

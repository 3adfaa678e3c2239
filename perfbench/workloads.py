"""The benchmark's workloads: what each one runs and how its output is checked.

Every workload is one call of a public entry point,
``repro.experiments.campaign.run_campaign`` or
``repro.verify.runner.run_verification``, with only the arguments below;
every other flag (``batch`` among them) keeps its default, so a change
of default shows up here.  Campaigns take the benchmark's seed;
verification keeps its default seed (see :meth:`Workload.prepare`).

Each check turns the call's output into an :class:`Outcome`: units
attempted (replicas, or certificates for verification), units failed
(capped, or failing a check), and the useful replica-phases done.  No
check depends on the order of RNG draws: the bands are laws of the
process, wide enough for any seed, fixed from the seeds listed beside
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

#: The seed a run uses unless told otherwise.
DEFAULT_SEED = 0
#: A seed kept out of tuning; a later change confirms a claimed gain on it.
HELDOUT_SEED = 7919


@dataclass
class Outcome:
    """What one workload call did, as the output checks see it."""

    units: int
    failed: int
    phases: int
    problems: list[str] = field(default_factory=list)


def m_ln_m(meta: dict) -> float:
    """Theorem 1's recovery scale for scenario A: m ln m."""
    return meta["m"] * math.log(meta["m"])


def n2_ln_n(meta: dict) -> float:
    """Claim 5.3's recovery scale for scenario B: n² ln n."""
    return meta["n"] ** 2 * math.log(meta["n"])


def check_recovery_band(
    result: dict, out: str, *, scale: Callable[[dict], float],
    band: tuple[float, float],
) -> Outcome:
    """No capped replica, and the fleet's median hitting time ÷ ``scale(meta)`` in *band*.

    A capped replica fails alone; a median outside the band fails every
    replica of the fleet.
    """
    times = np.asarray(result["times"], dtype=np.int64)
    capped = times < 0
    done = times[~capped]
    failed = int(capped.sum())
    problems = [f"{failed} of {times.size} replicas capped"] if failed else []
    ratio = float(np.median(done)) / scale(result["meta"]) if done.size else math.nan
    if not band[0] <= ratio <= band[1]:
        problems.append(f"median T/{scale.__name__} = {ratio:.4f} outside {band}")
        failed = times.size
    return Outcome(times.size, failed, int(done.sum()), problems)


def check_segment(result: dict, out: str, *, slack: int) -> Outcome:
    """Every time in [drop, drop + *slack*]; the last checkpoint reloads as load vectors.

    *drop* is m minus the target max load: from the all-in-one crash the
    max load falls by at most one per phase.  A row of the reloaded
    (R, n) matrix is a load vector when it holds m balls and is
    non-increasing.  A replica fails when its time or its row fails; an
    unreadable checkpoint fails every replica.
    """
    from repro.checkpoint import load_checkpoint

    m = result["meta"]["m"]
    drop = m - result["target_max_load"]
    times = np.asarray(result["times"], dtype=np.int64)
    bad = (times < drop) | (times > drop + slack)
    problems = [f"{int(bad.sum())} times outside [{drop}, {drop + slack}]"] if bad.any() else []
    doc = load_checkpoint(out)
    loads = None if doc is None else np.asarray(doc["state"]["engine"]["V"])
    if loads is None or loads.shape[0] != times.size:
        problems.append("last checkpoint missing or of the wrong shape")
        bad[:] = True
    else:
        rows_bad = (loads.sum(axis=1) != m) | np.any(np.diff(loads, axis=1) > 0, axis=1)
        if rows_bad.any():
            problems.append(f"{int(rows_bad.sum())} checkpoint rows are not load vectors")
        bad |= rows_bad
    done = times[times >= 0]
    return Outcome(times.size, int(bad.sum()), int(done.sum()), problems)


def check_certificates(result, out: str) -> Outcome:
    """Every certificate passes.

    The useful phases are the replica-phases the acceptance battery
    samples: one per one-step draw, and replicas × steps for its KS and
    stationary tests.
    """
    from repro.verify.runner import VerifyConfig

    certs = result.certificates
    failed = [c.name for c in certs if not c.passed]
    problems = [f"certificate {name} failed" for name in failed]
    config = VerifyConfig.quick().battery_config()
    per_case = {
        "chi2_onestep": config.draws,
        "ks_max_load": 2 * config.ks_replicas * config.ks_steps,
        "chi2_stationary": config.stationary_replicas * config.stationary_steps,
    }
    phases = sum(
        per_case[case["kind"]]
        for cert in certs if cert.name == "battery"
        for case in cert.cases
    )
    return Outcome(len(certs), len(failed), phases, problems)


@dataclass(frozen=True)
class Workload:
    """One named workload: its entry point, arguments and output check.

    Why each workload was chosen is recorded beside its name in
    ``BENCHMARK.json``.
    """

    name: str
    entry: str  # "campaign" or "verify"
    kwargs: dict
    #: ``check(result, out_dir) -> Outcome``
    check: Callable[[object, str], Outcome]

    def prepare(self, seed: int, out: str) -> Callable[[], object]:
        """Import the entry point; return the zero-argument workload call."""
        if self.entry == "campaign":
            from repro.experiments.campaign import run_campaign

            return lambda: run_campaign(seed=seed, out=out, **self.kwargs)
        from repro.verify.runner import VerifyConfig, run_verification

        # The seed stays at its default: the battery is a statistical
        # test that rejects at family-wise level 0.01 by design, so a
        # fresh battery seed per call would fail about 1% of calls.
        config = VerifyConfig.quick(out=out, **self.kwargs)
        return lambda: run_verification(config)


SEG_N = 100_000

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="campaign_a_vec",
            entry="campaign",
            kwargs=dict(scenario="a", engine="vectorized", n=1024, replicas=64, processes=1),
            # Scenario A recovers in Θ(m ln m) (Theorem 1).  The fleet's
            # median T/(m ln m) at seeds 0-19 and 7919: mean 0.645, sd
            # 0.0071, range 0.630-0.657; the band is mean ± 6 sd.
            check=partial(check_recovery_band, scale=m_ln_m, band=(0.60, 0.69)),
        ),
        Workload(
            name="segment_1e5_ckpt",
            entry="campaign",
            kwargs=dict(
                scenario="a", engine="vectorized", n=SEG_N, replicas=16, processes=1,
                target=SEG_N - 200, max_steps=800, save_every=25,
            ),
            # From the all-in-one crash each phase removes a ball from the
            # big bin unless it picks one of the <= 200 others (chance
            # <= 200/m), so T = 200 + a count of mean ~0.2; 10 spare
            # phases leave a false failure below 1e-12 per replica.
            check=partial(check_segment, slack=10),
        ),
        Workload(
            name="campaign_b_pool",
            entry="campaign",
            kwargs=dict(
                scenario="b", engine="scalar", n=128, replicas=32, processes=2,
                save_every=1000,
            ),
            # Scenario B needs Θ(n² ln n) (Claim 5.3).  The fleet's median
            # T/(n² ln n) at seeds 0-19 and 7919: mean 0.0731, sd 0.0015,
            # range 0.0704-0.0757; the band is mean ± 6 sd.
            check=partial(check_recovery_band, scale=n2_ln_n, band=(0.064, 0.082)),
        ),
        Workload(
            name="verify_quick",
            entry="verify",
            kwargs={},
            check=check_certificates,
        ),
    ]
}

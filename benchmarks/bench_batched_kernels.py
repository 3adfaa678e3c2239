"""The run-length kernel (``run_batched``) vs the dense per-step path.

Three shapes, each timing ``run`` (one dense O(R·n) step per Python
call) against ``run_batched`` (padded (value, count) runs, O(R·K) per
step, one pre-drawn RNG slab per segment):

* paper scale — (R, n) = (256, 10⁵), the n = 10⁵ Theorem 1 regime at
  campaign replica counts;
* campaign shape — (64, 1024), the fleet of the ``campaign_a_vec``
  benchmark workload, where the old dense batched kernel lost to the
  per-step loop (CI gates both pairs at ≥ 2×);
* million bins — (16, 10⁶), kernel only: the dense fleet would hold
  16 M loads, and the run kernel's step cost does not depend on n.

A moderate-scale pair (n = 4096) rides along so CI's quick mode can
watch the same ratio cheaply, plus the ``recovery_times`` driver which
is what campaigns actually call.  The committed ``BENCH_*.json`` from
this module is the baseline ``repro obs diff --fail-on-regression``
compares CI runs against.
"""

from repro.balls.load_vector import LoadVector
from repro.engine.registry import registered_specs
from repro.engine.vectorized import VectorizedProcess

N_PAPER = 100_000
N_MID = 4096
N_CAMPAIGN = 1024
N_MILLION = 1_000_000
R = 256
STEPS = 8


def _fleet(n: int, *, replicas: int = R, seed: int = 7) -> VectorizedProcess:
    spec = registered_specs()["scenario_a"]
    return VectorizedProcess(spec, LoadVector.all_in_one(n, n), replicas, seed=seed)


def test_bench_paper_scale_step_unbatched(benchmark):
    bp = _fleet(N_PAPER)
    bp.run(2)  # past the first-step cold caches
    benchmark.pedantic(lambda: bp.run(STEPS), rounds=3)


def test_bench_paper_scale_step_batched(benchmark):
    bp = _fleet(N_PAPER)
    bp.run_batched(2, batch=2)
    benchmark.pedantic(lambda: bp.run_batched(STEPS, batch=STEPS), rounds=3)


def test_bench_mid_scale_step_unbatched(benchmark):
    bp = _fleet(N_MID)
    bp.run(2)
    benchmark(lambda: bp.run(STEPS))


def test_bench_mid_scale_step_batched(benchmark):
    bp = _fleet(N_MID)
    bp.run_batched(2, batch=2)
    benchmark(lambda: bp.run_batched(STEPS, batch=STEPS))


def test_bench_campaign_shape_step_unbatched(benchmark):
    bp = _fleet(N_CAMPAIGN, replicas=64)
    bp.run(2)
    benchmark(lambda: bp.run(STEPS))


def test_bench_campaign_shape_step_batched(benchmark):
    bp = _fleet(N_CAMPAIGN, replicas=64)
    bp.run_batched(2, batch=2)
    benchmark(lambda: bp.run_batched(STEPS, batch=STEPS))


def test_bench_million_step_batched(benchmark):
    bp = _fleet(N_MILLION, replicas=16)
    bp.run_batched(2, batch=2)
    benchmark(lambda: bp.run_batched(STEPS, batch=STEPS))


def test_bench_mid_scale_recovery_batched(benchmark):
    from repro.obs.probes import recovery_target

    spec = registered_specs()["scenario_a"]
    target = recovery_target(N_MID, N_MID)

    def measure():
        bp = VectorizedProcess(
            spec, LoadVector.all_in_one(N_MID, N_MID), 32, seed=11
        )
        return bp.recovery_times(target, 2_000, batch=64)

    benchmark.pedantic(measure, rounds=2)

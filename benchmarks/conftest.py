"""Benchmark harness configuration.

Each experiment bench runs its driver once under pytest-benchmark
(rounds=1 — the experiments are internally replicated Monte Carlo
studies, so re-running them inside the timer would only re-measure the
same seeds) and prints the paper-style result table, which is what
EXPERIMENTS.md records.

``python -m repro bench run`` (:mod:`repro.obs.bench`) runs these
modules under pytest-benchmark and writes the schema-versioned
``BENCH_*.json`` perf artifacts; its ``--profile`` drops one cProfile
dump per bench into the run dir.
"""

from __future__ import annotations

import pytest


def run_experiment_bench(benchmark, experiment_id: str, seed: int = 0):
    """Run one experiment at smoke scale under the benchmark timer."""
    from repro.experiments import run_experiment

    result = benchmark.pedantic(
        run_experiment,
        args=(experiment_id,),
        kwargs=dict(scale="smoke", seed=seed),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.render())
    assert "VIOLATED" not in result.verdict
    assert "FAILURE" not in result.verdict
    return result


@pytest.fixture
def experiment_bench(benchmark):
    """Fixture form of :func:`run_experiment_bench`."""

    def _run(experiment_id: str, seed: int = 0):
        return run_experiment_bench(benchmark, experiment_id, seed)

    return _run

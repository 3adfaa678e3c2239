"""The run-length kernel: width guards, run invariants, no hot-path densify.

The differential fuzz (``tests/test_engine_fuzz.py``) pins the kernel
to the dense :meth:`VectorizedProcess.step` on small random configs.
This module adds what that sampling does not reach: ball counts past
the int32 range, the distinct-value bound on the run width, the run
invariants under arbitrary ⊕/⊖ sequences, and the promise that an
observed campaign builds the dense matrix only for checkpoint commits.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.balls.load_vector import LoadVector
from repro.engine import vectorized
from repro.engine.registry import registered_specs
from repro.engine.vectorized import VectorizedProcess

SPECS = registered_specs()


def _assert_canonical(proc: VectorizedProcess) -> None:
    """Runs are canonical: descending values, positive counts, then padding."""
    val, cnt = proc._val, proc._cnt
    real = cnt > 0
    k = real.sum(axis=1)
    # Real runs form a prefix of each row, and the last column is padding.
    assert (real == (np.arange(val.shape[1]) < k[:, None])).all()
    assert not real[:, -1].any()
    assert (val[~real] == -1).all()
    for r in range(val.shape[0]):
        assert (np.diff(val[r, : k[r]]) < 0).all()
        m = int((val[r] * cnt[r]).sum())
        assert k[r] <= math.isqrt(2 * m) + 2
    assert (cnt.sum(axis=1) == proc.n).all()


@pytest.mark.parametrize("spec", ["scenario_a", "scenario_b", "relocation"])
def test_wide_ball_count_matches_dense_step(spec):
    """m = 2³¹ + 7 on n = 4: 1000 kernel phases equal 1000 dense steps."""
    start = LoadVector.all_in_one(2**31 + 7, 4)
    dense = VectorizedProcess(SPECS[spec], start, 8, seed=5)
    runs = VectorizedProcess(SPECS[spec], start, 8, seed=5)
    dense.run(1000)
    runs.run_batched(1000, batch=64)
    np.testing.assert_array_equal(runs.loads, dense.loads)
    assert runs._rng.bit_generator.state == dense._rng.bit_generator.state
    assert runs.relocations == dense.relocations
    assert (runs.ball_counts() == 2**31 + 7).all()


def test_run_width_is_capped_by_the_distinct_value_bound():
    """Padding grows on demand but never past ⌊√(2m)⌋ + 2 runs."""
    m = 6
    proc = VectorizedProcess(SPECS["scenario_a"], LoadVector.all_in_one(m, 12), 3)
    cap = math.isqrt(2 * m) + 3  # the bound plus the padding column
    while proc._val.shape[1] < cap:
        proc._grow(m)
    assert proc._val.shape[1] == cap
    with pytest.raises(AssertionError, match="runs"):
        proc._grow(m)


def test_run_count_stays_within_bound_along_a_recovery():
    proc = VectorizedProcess(
        SPECS["scenario_b"], LoadVector.all_in_one(300, 40), 16, seed=3
    )
    for _ in range(60):
        proc.run_batched(50, batch=50)
        _assert_canonical(proc)


def _dense_oplus(V, rows, idx):
    vals = V[rows, idx]
    V[rows, (V[rows] > vals[:, None]).sum(axis=1)] += 1


def _dense_ominus(V, rows, idx):
    vals = V[rows, idx]
    V[rows, (V[rows] >= vals[:, None]).sum(axis=1) - 1] -= 1


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 9),
    m=st.integers(1, 30),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 2**6 - 1), st.floats(0, 0.999)),
        min_size=1,
        max_size=60,
    ),
)
def test_random_plus_minus_sequences_keep_runs_canonical(n, m, ops):
    """Random ⊕/⊖ on random row subsets: runs stay canonical, balls are
    conserved op by op, and the rows equal the dense Fact 3.2 updates."""
    R = 6
    proc = VectorizedProcess(SPECS["scenario_a"], LoadVector.all_in_one(m, n), R)
    V = proc.loads.copy()
    for plus, mask, u in ops:
        rows = np.array([r for r in range(R) if mask >> r & 1], dtype=np.int64)
        if plus:
            idx = np.full(rows.size, int(u * n), dtype=np.int64)
            before = proc.ball_counts()
            proc._inc(rows, proc._run_of(rows, idx))
            _dense_oplus(V, rows, idx)
            delta = 1
        else:
            rows = rows[(V[rows] > 0).any(axis=1)]
            s = (V[rows] > 0).sum(axis=1)
            idx = (u * s).astype(np.int64)
            before = proc.ball_counts()
            proc._dec(rows, proc._run_of(rows, idx))
            _dense_ominus(V, rows, idx)
            delta = -1
        expect = before.copy()
        expect[rows] += delta
        np.testing.assert_array_equal(proc.ball_counts(), expect)
        _assert_canonical(proc)
        np.testing.assert_array_equal(vectorized._densify(proc._val, proc._cnt), V)


def test_campaign_builds_dense_only_for_checkpoint_commits(tmp_path, monkeypatch):
    """An observed, checkpointed campaign of the benchmark's shape
    (scenario A, n = 1024, R = 64, probes on) densifies once per commit."""
    from repro.checkpoint.manager import Checkpointer
    from repro.experiments.campaign import run_campaign

    builds = []
    commits = []
    densify = vectorized._densify
    save = Checkpointer.save

    def counting_densify(val, cnt):
        builds.append(val.shape)
        return densify(val, cnt)

    def counting_save(self, step, state):
        commits.append(step)
        return save(self, step, state)

    monkeypatch.setattr(vectorized, "_densify", counting_densify)
    monkeypatch.setattr(Checkpointer, "save", counting_save)
    run_campaign(
        scenario="a", engine="vectorized", n=1024, replicas=64, processes=1,
        save_every=500, seed=0, out=str(tmp_path / "run"),
    )
    assert len(commits) >= 5
    assert len(builds) == len(commits)

"""The scalar engine's Fact 3.2 run table.

:class:`~repro.balls.load_vector.RunTable` applies ⊕/⊖ in O(1) by
keeping each run's first and last index.  This module checks it three
ways: against a table rebuilt from the array and the searchsorted
primitives after every random operation; by pinning seeded scalar
trajectories of every sequential spec family to a reference step
written with those primitives (the ``dense_recovery_times`` idea:
compare two independent implementations); and through checkpoint
resume, whose ``load_state`` now refuses snapshots it cannot run.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.balls import load_vector
from repro.balls.custom_removal import weight_power
from repro.balls.load_vector import LoadVector, RunTable, ominus_index, oplus_index
from repro.balls.rules import ABKURule, AdaptiveRule
from repro.engine.registry import registered_specs
from repro.engine.scalar import OpenSpecProcess, ScalarEngine, SpecProcess
from repro.engine.spec import (
    BallRemoval,
    BinRemoval,
    custom_removal_spec,
    open_spec,
    relocation_spec,
    scenario_a_spec,
    scenario_b_spec,
)

SPECS = registered_specs()
ADAP = AdaptiveRule([1, 3], name="adap[1|3]")


def _runs_of(v: np.ndarray) -> tuple[dict, dict]:
    """First/last index of each load, by a plain scan (independent of RunTable)."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for k, a in enumerate(v.tolist()):
        first.setdefault(a, k)
        last[a] = k
    return first, last


def _nonempty(v: np.ndarray) -> int:
    return int(np.searchsorted(-v, 0, side="left"))


# ---------------------------------------------------------------------------
# The table against the searchsorted primitives
# ---------------------------------------------------------------------------

@st.composite
def _start_and_ops(draw):
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["random", "crash", "equal"]))
    if shape == "random":
        loads = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    elif shape == "crash":
        loads = [draw(st.integers(1, 30))] + [0] * (n - 1)
    else:
        loads = [draw(st.integers(0, 5))] * n
    ops = draw(st.lists(st.tuples(st.booleans(), st.integers(0, n - 1)), max_size=60))
    return np.sort(np.asarray(loads, dtype=np.int64))[::-1].copy(), ops


@settings(max_examples=200, deadline=None)
@given(_start_and_ops())
def test_ops_match_primitives_and_a_rebuilt_table(case):
    v, ops = case
    table = RunTable(v)
    assert (table.first, table.last) == _runs_of(v)
    for add, i in ops:
        if add:
            want = oplus_index(v, i)
            assert table.increment(i) == want
        else:
            s = _nonempty(v)
            if s == 0:
                continue
            i %= s  # ⊖ needs a nonempty bin
            want = ominus_index(v, i)
            assert table.decrement(i) == want
        assert (np.diff(v) <= 0).all()
        assert (table.first, table.last) == _runs_of(v)
        assert table.num_nonempty() == _nonempty(v)


def test_decrementing_an_empty_bin_raises_and_changes_nothing():
    v = np.array([2, 0, 0], dtype=np.int64)
    table = RunTable(v)
    with pytest.raises(ValueError, match="empty bin 1"):
        table.decrement(1)
    assert v.tolist() == [2, 0, 0]
    assert (table.first, table.last) == _runs_of(v)


@pytest.mark.parametrize("m", [1, 7, 10**6])
def test_table_size_is_the_number_of_distinct_loads(m):
    crash = RunTable(LoadVector.all_in_one(m, 64).loads.copy())
    assert len(crash.first) == 2 and crash.num_nonempty() == 1
    staircase = np.repeat(np.arange(40, -1, -1), 3)  # 41 runs, m = 2460
    table = RunTable(staircase)
    assert len(table.first) == 41 <= math.isqrt(2 * int(staircase.sum())) + 2
    full = RunTable(np.full(5, 3, dtype=np.int64))
    assert full.first == {3: 0} and full.last == {3: 4} and full.num_nonempty() == 5


# ---------------------------------------------------------------------------
# Seeded trajectories against a searchsorted reference step
# ---------------------------------------------------------------------------

def _reference_closed(spec, v: np.ndarray, rng: np.random.Generator):
    """One closed phase on the primitives; same draws as SpecProcess.step."""
    law, rule, p = spec.removal, spec.rule, spec.p_relocate
    if p == 0.0 and isinstance(law, BallRemoval):
        # The Fenwick draw: first bin whose prefix mass exceeds the target.
        target = int(rng.integers(0, int(v.sum())))
        i = int(np.searchsorted(np.cumsum(v), target, side="right"))
    elif p == 0.0 and isinstance(law, BinRemoval):
        i = int(rng.integers(0, _nonempty(v)))
    else:
        i = law.quantile(v, float(rng.random()))
    v[ominus_index(v, i)] -= 1
    j = rule.select(v, rng)
    v[oplus_index(v, j)] += 1
    relocated = 0
    if p > 0 and rng.random() < p:
        target = rule.select(v, rng)
        if v[0] - v[target] >= 2:
            v[ominus_index(v, 0)] -= 1
            v[oplus_index(v, target)] += 1
            relocated = 1
    return relocated


def _reference_open(spec, v: np.ndarray, rng: np.random.Generator) -> None:
    """One open step on the primitives; same draws as OpenSpecProcess.step."""
    if rng.random() < 0.5:
        u = float(rng.random())
        if v.sum() > 0:
            i = spec.removal.quantile(v, u)
            v[ominus_index(v, i)] -= 1
    elif spec.max_balls is None or v.sum() < spec.max_balls:
        j = spec.rule.select(v, rng)
        v[oplus_index(v, j)] += 1


CLOSED = {
    "scenario_a": SPECS["scenario_a"],
    "scenario_b": SPECS["scenario_b"],
    "scenario_a_adap": SPECS["scenario_a_adap"],
    "scenario_b_adap": scenario_b_spec(ADAP),
    "relocation_a": relocation_spec(ABKURule(2), scenario="a", p_relocate=0.4),
    "relocation_b": relocation_spec(ABKURule(2), scenario="b", p_relocate=0.4),
    "custom_pressure": custom_removal_spec(ABKURule(2), weight_power(2.0)),
}
OPEN = {
    "open_ball": SPECS["open_ball"],
    "open_bin": SPECS["open_bin"],
    "open_bin_uncapped": open_spec(ABKURule(2), removal="bin"),
}
STARTS = {
    "crash": LoadVector.all_in_one(60, 16),
    "random": LoadVector.random(45, 16, 3),
    "equal": LoadVector.balanced(48, 16),
}


@pytest.mark.parametrize("start", list(STARTS))
@pytest.mark.parametrize("name", list(CLOSED))
@pytest.mark.parametrize("seed", [0, 1])
def test_closed_trajectory_equals_reference_step(name, start, seed):
    spec = CLOSED[name]
    proc = SpecProcess(spec, STARTS[start], seed=seed)
    v = STARTS[start].loads.copy()
    rng = np.random.default_rng(seed)
    relocations = 0
    for _ in range(1500):
        proc.step()
        relocations += _reference_closed(spec, v, rng)
        np.testing.assert_array_equal(proc.loads, v)
    assert proc._rng.bit_generator.state == rng.bit_generator.state
    assert proc.relocations == relocations
    assert (proc._runs.first, proc._runs.last) == _runs_of(v)
    if proc._fenwick is not None:
        np.testing.assert_array_equal(proc._fenwick.to_array(), v)


@pytest.mark.parametrize("start", [[0] * 8, [3, 0, 0, 0, 0, 0, 0, 0], [2, 1, 1, 0, 0, 0, 0, 0]])
@pytest.mark.parametrize("name", list(OPEN))
@pytest.mark.parametrize("seed", [0, 1])
def test_open_trajectory_equals_reference_step(name, start, seed):
    spec = OPEN[name]
    proc = OpenSpecProcess(spec, start, seed=seed)
    v = np.asarray(start, dtype=np.int64)
    rng = np.random.default_rng(seed)
    for _ in range(1500):
        proc.step()
        _reference_open(spec, v, rng)
        np.testing.assert_array_equal(proc.loads, v)
        assert proc.m == int(v.sum())
    assert proc._rng.bit_generator.state == rng.bit_generator.state


# ---------------------------------------------------------------------------
# Checkpoint resume and snapshot validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["scenario_a", "scenario_b", "relocation_b", "open_bin"])
def test_resume_mid_run_equals_the_uninterrupted_run(name):
    spec = {**CLOSED, **OPEN}[name]
    start = LoadVector.all_in_one(40, 12) if spec.kind == "closed" else LoadVector.all_in_one(5, 12)
    whole = ScalarEngine.make(spec, start, seed=11)
    whole.run(700)
    head = ScalarEngine.make(spec, start, seed=11)
    head.run(300)
    snap = head.state_dict()
    head.run(50)  # the snapshot must not alias live state
    tail = ScalarEngine.make(spec, start, seed=99)
    tail.load_state(snap)
    tail.run(400)
    np.testing.assert_array_equal(tail.loads, whole.loads)
    assert tail.t == whole.t == 700
    assert tail.m == whole.m
    assert tail.state_dict()["rng"] == whole.state_dict()["rng"]
    assert (tail._runs.first, tail._runs.last) == _runs_of(whole.loads)


def _snapshot_with(proc, loads) -> dict:
    snap = proc.state_dict()
    snap["loads"] = np.asarray(loads, dtype=np.int64)
    snap["t"] = 123
    return snap


def _assert_rejected(proc, snap, match: str) -> None:
    before = (proc.loads.copy(), proc.t, proc._rng.bit_generator.state)
    with pytest.raises(ValueError, match=match):
        proc.load_state(snap)
    np.testing.assert_array_equal(proc.loads, before[0])
    assert proc.t == before[1]
    assert proc._rng.bit_generator.state == before[2]


@pytest.mark.parametrize(
    "loads, match",
    [
        ([6, 0, 0, 0], r"m=6 balls, process has m=4"),
        ([2, 0, 0, 0], r"m=2 balls, process has m=4"),
        ([0, 1, 0, 3], "not normalized"),
        ([5, 0, 0, -1], "negative"),
        ([2, 1, 1], r"n=3, process has n=4"),
    ],
)
def test_closed_load_state_rejects_snapshots_it_cannot_run(loads, match):
    proc = SpecProcess(SPECS["scenario_b"], [4, 0, 0, 0], seed=0)
    proc.run(5)
    _assert_rejected(proc, _snapshot_with(proc, loads), match)
    # The process still runs after a refused snapshot.
    proc.run(50)
    assert proc.m == 4 and (proc._runs.first, proc._runs.last) == _runs_of(proc.loads)


def test_the_stale_ball_count_crash_is_refused_up_front():
    """A snapshot with more balls used to die later inside FenwickTree.find."""
    proc = SpecProcess(SPECS["scenario_a"], [2, 0], seed=0)
    with pytest.raises(ValueError, match="m=5 balls"):
        proc.load_state(_snapshot_with(proc, [5, 0]))


def test_open_load_state_validates_shape_but_accepts_any_m():
    proc = OpenSpecProcess(SPECS["open_bin"], [2, 1, 0, 0], seed=0)
    _assert_rejected(proc, _snapshot_with(proc, [0, 1, 0, 3]), "not normalized")
    _assert_rejected(proc, _snapshot_with(proc, [1, 0, -1, -1]), "negative")
    proc.load_state(_snapshot_with(proc, [4, 1, 1, 0]))
    assert proc.m == 6 and proc.t == 123
    assert proc._runs.num_nonempty() == 3


def test_rbb_load_state_rejects_a_different_ball_count():
    proc = ScalarEngine.make(SPECS["rbb_twochoice"], [3, 1, 0], seed=0)
    _assert_rejected(proc, _snapshot_with(proc, [3, 3, 0]), r"m=6 balls, process has m=4")


# ---------------------------------------------------------------------------
# sample_transitions
# ---------------------------------------------------------------------------

def test_sample_transitions_validates_the_start_once(monkeypatch):
    calls = []
    real = load_vector.check_load_vector

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(load_vector, "check_load_vector", counting)
    out = ScalarEngine.sample_transitions(SPECS["scenario_b"], (0, 2, 1), 40, seed=4)
    assert len(calls) == 1
    monkeypatch.undo()
    # Same draws whether the start comes as a raw tuple or a LoadVector.
    again = ScalarEngine.sample_transitions(
        SPECS["scenario_b"], LoadVector([2, 1, 0]), 40, seed=4
    )
    assert out == again
    assert all(sum(t) == 3 and list(t) == sorted(t, reverse=True) for t in out)

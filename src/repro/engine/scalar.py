"""Scalar execution engine: the reference path.

One Python-level step per phase over a single normalized load vector.
Every ⊕/⊖ goes through a Fact 3.2
:class:`~repro.balls.load_vector.RunTable` kept next to the loads, so
each update is O(1) whatever n is.  This engine executes *every*
:class:`~repro.engine.spec.ProcessSpec` (it is the reference the other
engines are validated against) and keeps the per-law fast paths the
dedicated simulators had:

* :class:`~repro.engine.spec.BallRemoval` — a Fenwick tree over the
  loads makes the 𝒜(v) draw O(log n) (the hot loop of E1/E2/E7);
* :class:`~repro.engine.spec.BinRemoval` — the nonempty count s is
  where the run table's 0-run starts, so the ℬ(v) draw is O(1);
* anything else — generic inverse-CDF at a fresh uniform, O(n).

With relocation the removal draw is always the generic inverse CDF
(the Fenwick tree would need the extra move mirrored), matching the
draw order of the dedicated
:class:`~repro.balls.relocation.RelocationProcess` it replaces.

RNG draw order per law is bit-compatible with the pre-engine
simulators, so seeded runs of the legacy classes (now thin subclasses)
reproduce their historical trajectories.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro import obs
from repro.balls.load_vector import LoadVector, RunTable
from repro.balls.process import DynamicAllocationProcess, check_snapshot_loads
from repro.engine.spec import BallRemoval, BinRemoval, ProcessSpec
from repro.utils.fenwick import FenwickTree
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int

__all__ = ["SpecProcess", "OpenSpecProcess", "ScalarEngine"]


class SpecProcess(DynamicAllocationProcess):
    """Scalar simulator of a closed :class:`ProcessSpec` (one phase = §3.3)."""

    def __init__(
        self,
        spec: ProcessSpec,
        state: Union[LoadVector, np.ndarray, list],
        *,
        seed: SeedLike = None,
    ):
        if spec.kind != "closed":
            raise ValueError(
                f"SpecProcess runs closed specs; use OpenSpecProcess for {spec.name!r}"
            )
        if spec.step.synchronous:
            raise ValueError(
                f"SpecProcess runs sequential specs; use "
                f"repro.balls.rbb.RBBProcess for {spec.name!r}"
            )
        super().__init__(state, seed=seed)
        self.spec = spec
        self.rule = spec.rule
        self._obs_name = spec.name
        self._law = spec.removal
        self._m = int(self._v.sum())
        self.relocations = 0
        self._sync_derived()

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["relocations"] = self.relocations
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self.relocations = int(state.get("relocations", 0))

    def _sync_derived(self) -> None:
        # The run table, plus the per-law removal fast paths; built here
        # for __init__ and rebuilt from restored loads (checkpoints never
        # carry them).  Relocation runs draw by the generic quantile.
        self._runs = RunTable(self._v)
        fast = self.spec.p_relocate == 0.0
        self._fenwick = (
            FenwickTree(self._v) if fast and isinstance(self._law, BallRemoval) else None
        )
        self._bin_draw = fast and isinstance(self._law, BinRemoval)

    def _obs_account(self, steps: int) -> None:
        super()._obs_account(steps)
        reg = obs.metrics()
        if self._fenwick is not None:
            # One find() plus the two ±1 updates mirroring Fact 3.2.
            reg.counter(f"{self._obs_name}.fenwick_ops").inc(3 * steps)
        if self._bin_draw:
            reg.gauge(f"{self._obs_name}.nonempty_bins").set(self._runs.num_nonempty())

    def step(self) -> None:
        rng = self._rng
        v = self._v
        runs = self._runs
        # Remove (per-law fast path; draw order matches the legacy sims).
        if self._fenwick is not None:
            i = self._fenwick.find(int(rng.integers(0, self._m)))
            self._fenwick.add(runs.decrement(i), -1)
        elif self._bin_draw:
            runs.decrement(int(rng.integers(0, runs.num_nonempty())))
        else:
            runs.decrement(self._law.quantile(v, float(rng.random())))
        # Place.
        jj = runs.increment(self.rule.select(v, rng))
        if self._fenwick is not None:
            self._fenwick.add(jj, +1)
        # Optional relocation: fullest bin → rule-selected target.
        p = self.spec.p_relocate
        if p > 0 and rng.random() < p:
            target = self.rule.select(v, rng)
            if v[0] - v[target] >= 2:
                runs.decrement(0)
                runs.increment(target)
                self.relocations += 1
        self._t += 1


class OpenSpecProcess:
    """Scalar simulator of an open :class:`ProcessSpec` (§7 variable m).

    Each step a fair coin picks: remove one ball by the spec's law
    (no-op on the empty state, matching the paper's "remove a random
    *existing* ball"), or place one ball by the rule (no-op at the
    ``max_balls`` cap when set).
    """

    def __init__(
        self,
        spec: ProcessSpec,
        state: Union[LoadVector, np.ndarray, list],
        *,
        seed: SeedLike = None,
    ):
        if spec.kind != "open":
            raise ValueError(
                f"OpenSpecProcess runs open specs; use SpecProcess for {spec.name!r}"
            )
        if isinstance(state, LoadVector):
            v = state.loads.copy()
        else:
            v = LoadVector(state).loads.copy()
        self._v = v
        self._runs = RunTable(v)
        self._m = int(v.sum())
        self.spec = spec
        self.rule = spec.rule
        self.max_balls = spec.max_balls
        self._law = spec.removal
        self._rng = as_generator(seed)
        self._t = 0

    @property
    def n(self) -> int:
        """Number of bins."""
        return int(self._v.shape[0])

    @property
    def m(self) -> int:
        """Current (varying) number of balls."""
        return self._m

    @property
    def t(self) -> int:
        """Steps executed."""
        return self._t

    @property
    def state(self) -> LoadVector:
        """Defensive snapshot of the normalized state."""
        return LoadVector(self._v.copy(), normalize=False)

    @property
    def loads(self) -> np.ndarray:
        """Live descending load array (read-only use)."""
        return self._v

    def step(self) -> None:
        """One open-system step: fair coin → remove or insert."""
        rng = self._rng
        if rng.random() < 0.5:
            self._remove(float(rng.random()))
        else:
            self._insert(rng)
        self._t += 1

    def step_with(self, coin: bool, u_remove: float, rng: np.random.Generator) -> None:
        """Externally driven step, for coupling two copies on shared randomness."""
        if coin:
            self._remove(u_remove)
        else:
            self._insert(rng)
        self._t += 1

    def _remove(self, u: float) -> None:
        if self._m == 0:
            return  # nothing to remove: no-op, as in the paper's example
        self._runs.decrement(self._law.quantile(self._v, u))
        self._m -= 1

    def _insert(self, rng: np.random.Generator) -> None:
        if self.max_balls is not None and self._m >= self.max_balls:
            return  # bounded-population variant (§7 first class)
        self._runs.increment(self.rule.select(self._v, rng))
        self._m += 1

    def _get_probe(self):
        """Lazily built chain probe (see the closed-spec counterpart).

        Open systems have no fixed m, so the recovery envelope is pinned
        to the ball count at probe creation — the natural "recover to
        where we started being watched" notion for §7 runs.
        """
        probe = getattr(self, "_chain_probe", None)
        if probe is None:
            from repro.obs.probes import ChainProbe, max_load_recovery_monitor

            series = f"{self.spec.name}/chain"
            probe = ChainProbe(
                series, monitors=(max_load_recovery_monitor(series, self.n, self.m),)
            )
            self._chain_probe = probe
        return probe

    def state_dict(self) -> dict:
        """Open-system state for checkpoint/resume (loads, RNG, phase)."""
        state: dict = {
            "loads": self._v.copy(),
            "rng": self._rng.bit_generator.state,
            "t": self._t,
        }
        probe = getattr(self, "_chain_probe", None)
        if probe is not None:
            state["probe"] = probe.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto this simulator.

        The probe's recovery envelope was pinned to the ball count at
        probe *creation*; its monitor state (threshold included) rides
        along in the snapshot, so a resumed open run keeps the original
        envelope even though ``self.m`` has drifted since.  A snapshot
        that does not fit (see
        :func:`~repro.balls.process.check_snapshot_loads`; any m is
        fine) raises ``ValueError`` before anything is restored.
        """
        v = check_snapshot_loads(state["loads"], self._v)
        self._v[:] = v
        self._runs = RunTable(self._v)
        self._m = int(v.sum())
        self._rng.bit_generator.state = state["rng"]
        self._t = int(state["t"])
        if "probe" in state:
            self._get_probe().load_state(state["probe"])

    def run(self, steps: int) -> "OpenSpecProcess":
        """Execute *steps* steps; returns self."""
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        if not obs.enabled():
            for _ in range(steps):
                self.step()
            return self
        with obs.span(f"{self.spec.name}/run", steps=steps, n=self.n):
            every = obs.probe_interval()
            if every > 0:
                probe = self._get_probe()
                for _ in range(steps):
                    self.step()
                    if self._t % every == 0:
                        probe.observe(self._t, self._v)
            else:
                for _ in range(steps):
                    self.step()
        obs.metrics().counter(f"{self.spec.name}.steps").inc(steps)
        return self

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n}, m={self.m}, "
            f"spec={self.spec.name!r}, t={self._t})"
        )


class ScalarEngine:
    """The reference engine: executes every spec, one phase at a time."""

    name = "scalar"

    @staticmethod
    def supports(spec: ProcessSpec) -> tuple[bool, str]:
        """Every spec runs on the scalar path (it is the reference)."""
        return True, "reference path"

    @staticmethod
    def make(
        spec: ProcessSpec,
        state: Union[LoadVector, np.ndarray, list],
        *,
        seed: SeedLike = None,
    ) -> Union[SpecProcess, OpenSpecProcess, "RBBProcess"]:
        """Instantiate the scalar simulator for *spec* at *state*."""
        if spec.step.synchronous:
            from repro.balls.rbb import RBBProcess

            return RBBProcess(spec, state, seed=seed)
        if spec.kind == "open":
            return OpenSpecProcess(spec, state, seed=seed)
        return SpecProcess(spec, state, seed=seed)

    @staticmethod
    def sample_transitions(
        spec: ProcessSpec,
        state: Union[LoadVector, np.ndarray, list],
        draws: int,
        *,
        steps: int = 1,
        seed: SeedLike = None,
    ) -> list[tuple[int, ...]]:
        """Statistical-acceptance hook: *draws* i.i.d. end states.

        Each draw restarts a fresh simulator at *state*, advances it
        *steps* phases, and reads the normalized end state; all draws
        share one RNG stream, so the whole batch is reproducible from
        one seed.  The chi-square battery of :mod:`repro.verify`
        compares these against :meth:`ExactEngine.transition_row`.
        """
        draws = check_positive_int("draws", draws)
        rng = as_generator(seed)
        start = state if isinstance(state, LoadVector) else LoadVector(state)
        out: list[tuple[int, ...]] = []
        for _ in range(draws):
            proc = ScalarEngine.make(spec, start, seed=rng)
            proc.run(steps)
            out.append(tuple(int(x) for x in proc.loads))
        return out

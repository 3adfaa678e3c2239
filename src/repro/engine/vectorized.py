"""Vectorized execution engine: R replicas advanced per whole-array step.

The scaling experiments run many independent replicas of the same
process.  Rather than looping replicas in Python, this engine advances
*all* replicas per step with whole-array NumPy operations — the
"vectorize the loop over replicas" idiom of the HPC guides.

**Run-length kernel.**  The paper's §3.1 works with normalized
(descending) load vectors, and Fact 3.2's ⊕/⊖ only move one bin across
the boundary between two runs of equal values.  Along a whole recovery
from the all-in-one crash a row holds a handful of distinct values, so
the sequential kernel (:meth:`VectorizedProcess._advance`, behind
``run_batched`` and ``recovery_times``) stores each row as padded
``(value, count)`` runs — two (R, K) arrays, values strictly descending,
counts positive, the trailing columns padding (value −1, count 0) — and
a step costs O(R·K) instead of O(R·n):

* **Removal** — each law inverts its draw in run space
  (:meth:`~repro.engine.spec.RemovalLaw.quantile_runs`): ball ⌊u·m⌋
  over the run masses value×count, or bin ⌊u·s⌋ over the cumulative
  counts.  The same uniforms give the same integer targets as the dense
  inversion, so trajectories are bitwise those of :meth:`step`.
* **Insertion** — only rules whose insertion index is an
  *inverse-transform* draw independent of the loads (ABKU[d]:
  ``floor(n·u^{1/d})``); the bin index maps to its run through the
  cumulative counts.  ADAP(χ) samples sequentially with a
  state-dependent stopping rule, so it is rejected by
  :meth:`VectorizedEngine.supports` and stays on the scalar path.
* **⊖ / ⊕** — move one bin to the run below / above: merge with the
  neighbouring run, shift the value of a single-bin run in place, or
  (rarely) splice a run out or in; the padding grows on demand.
* **Relocation / open steps** — the same primitives on row subsets.

What stays dense: :meth:`step`/:meth:`run` (the reference that ``repro
fuzz`` compares the kernel against), the synchronous (RBB) scatter —
one ``rng.random(Σ s_r)`` draw over every released ball in the fleet,
bin-counted per replica and re-sorted in whole-array passes — and the
float-weighted w(ℓ) law, whose float summation order is that of the
dense row.  The dense (R, n) matrix is otherwise built only for
:attr:`loads` and :meth:`state_dict`.

Cross-validated against the scalar engine distributionally (KS tests in
the engine-parity suite); replicas consume randomness differently from
scalar runs, so trajectories are not bit-identical by design.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from repro import obs
from repro.balls.load_vector import LoadVector
from repro.engine.spec import ProcessSpec
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int

__all__ = ["VectorizedProcess", "VectorizedEngine"]


def _runs_of(V: np.ndarray, spare: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Padded ``(value, count)`` runs of the descending rows of *V*.

    At least one padding column (value −1, count 0) trails every row, so
    a run's lower neighbour always exists and, in the flattened view,
    column 0's upper neighbour is the previous row's padding.
    """
    R, n = V.shape
    head = np.ones((R, n), dtype=bool)
    np.not_equal(V[:, 1:], V[:, :-1], out=head[:, 1:])
    r, c = np.nonzero(head)
    k = head.sum(axis=1)
    col = np.arange(r.size) - np.repeat(np.cumsum(k) - k, k)
    K = int(k.max()) + spare
    val = np.full((R, K), -1, dtype=np.int64)
    cnt = np.zeros((R, K), dtype=np.int64)
    val[r, col] = V[r, c]
    cnt[r, col] = np.diff(np.append(r * n + c, R * n))
    return val, cnt


def _densify(val: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """The (R, n) int64 load matrix of padded runs (the one dense build)."""
    return np.repeat(val.ravel(), cnt.ravel()).reshape(val.shape[0], -1)


class VectorizedProcess:
    """R independent replicas of a spec, stepped as one fleet.

    Exactly one of two layouts is live at a time: the dense (R, n)
    matrix that :meth:`step` mutates, or the padded runs that
    :meth:`_advance` mutates.  Each builds the other on demand, so the
    layouts interleave freely (a :meth:`run` after a ``run_batched``
    continues the identical trajectory).
    """

    def __init__(
        self,
        spec: ProcessSpec,
        start: Union[LoadVector, np.ndarray, list],
        replicas: int,
        *,
        seed: SeedLike = None,
    ):
        ok, why = VectorizedEngine.supports(spec)
        if not ok:
            raise TypeError(f"spec {spec.name!r} is not vectorizable: {why}")
        replicas = check_positive_int("replicas", replicas)
        if not isinstance(start, LoadVector):
            start = LoadVector(start)
        self.spec = spec
        self.rule = spec.rule
        self._law = spec.removal
        self._rng = as_generator(seed)
        self._m = int(start.m)
        if spec.kind == "closed" and self._m < 1:
            raise ValueError("need at least one ball")
        self._R = replicas
        self._n = start.n
        self._rows = np.arange(replicas)
        self._t = 0
        self.relocations = 0
        # Synchronous specs scatter against a fixed insertion pmf
        # (supports() guarantees the rule is load-independent).
        self._q: np.ndarray | None = None
        if spec.step.synchronous:
            self._q = spec.rule.insertion_distribution(
                np.zeros(self._n, dtype=np.int64)
            )
        self._dense_only = self._q is not None or not self._law.run_space
        row = start.loads.astype(np.int64)[None, :]
        self._V: np.ndarray | None = None
        self._val: np.ndarray | None = None
        self._cnt: np.ndarray | None = None
        if self._dense_only:
            self._V = np.tile(row, (replicas, 1))
        else:
            val, cnt = _runs_of(row)
            self._val = np.tile(val, (replicas, 1))
            self._cnt = np.tile(cnt, (replicas, 1))

    # -- state access ---------------------------------------------------------

    @property
    def replicas(self) -> int:
        """Number of replicas R."""
        return self._R

    @property
    def n(self) -> int:
        """Bins per replica."""
        return self._n

    @property
    def m(self) -> int:
        """Balls per replica (constant for closed specs; -1 for open)."""
        return self._m if self.spec.kind == "closed" else -1

    @property
    def t(self) -> int:
        """Phases executed."""
        return self._t

    @property
    def loads(self) -> np.ndarray:
        """The (R, n) descending load matrix (read-only use)."""
        if self._V is None:
            self._V = _densify(self._val, self._cnt)
        return self._V

    def _go_dense(self) -> None:
        """Make the dense matrix the live layout (the runs go stale)."""
        if self._V is None:
            self._V = _densify(self._val, self._cnt)
        self._val = self._cnt = None

    def _go_runs(self) -> None:
        """Make the runs the live layout (the dense matrix goes stale)."""
        if self._val is None:
            self._val, self._cnt = _runs_of(self._V)
        self._V = None

    def ball_counts(self) -> np.ndarray:
        """Per-replica ball count (varies for open specs)."""
        if self._val is None:
            return self._V.sum(axis=1)
        return (self._val * self._cnt).sum(axis=1)

    def max_loads(self) -> np.ndarray:
        """Per-replica max load (column 0 of either layout)."""
        return (self._V if self._val is None else self._val)[:, 0].copy()

    def tail(self, levels: int) -> np.ndarray:
        """Mean tail profile s_i (i = 0..levels) pooled over replicas."""
        if self._val is None:
            return np.array([(self._V >= i).mean() for i in range(levels + 1)])
        size = self._R * self._n
        return np.array(
            [self._cnt[self._val >= i].sum() / size for i in range(levels + 1)]
        )

    # -- dense Fact 3.2 primitives (the step() reference) -----------------------

    def _decrement(self, rows: np.ndarray, idx: np.ndarray) -> None:
        """Row-wise v ⊖ e_idx: −1 at the last index of each value-run.

        The whole-fleet case (rows is the identity) reads ``_V`` in
        place; a fancy-indexed ``_V[rows]`` there would copy the full
        (R, n) matrix per call.
        """
        sub = self._V if rows is self._rows else self._V[rows]
        vals = sub[np.arange(rows.shape[0]), idx]
        pos = (sub >= vals[:, None]).sum(axis=1) - 1
        self._V[rows, pos] -= 1

    def _increment(self, rows: np.ndarray, idx: np.ndarray) -> None:
        """Row-wise v ⊕ e_idx: +1 at the first index of each value-run."""
        sub = self._V if rows is self._rows else self._V[rows]
        vals = sub[np.arange(rows.shape[0]), idx]
        pos = (sub > vals[:, None]).sum(axis=1)
        self._V[rows, pos] += 1

    def _insertion_indices(self, u: np.ndarray) -> np.ndarray:
        """Inverse-transform insertion indices (load-independent rules only)."""
        return self.rule.insertion_quantile_batch(self._n, u)

    # -- stepping ---------------------------------------------------------------

    def step(self) -> None:
        """Advance every replica by one phase on the dense reference path."""
        self._go_dense()
        if self._q is not None:
            self._step_synchronous()
        elif self.spec.kind == "closed":
            self._step_closed()
        else:
            self._step_open()
        self._t += 1

    def _step_synchronous(self) -> None:
        """One RBB step for the whole fleet: release, scatter, re-sort.

        Each row releases one ball from each of its s_r nonempty bins
        (rows stay descending after the masked decrement).  All released
        balls of all replicas then re-place through one inverse-transform
        scatter: a single ``rng.random(Σ s_r)`` draw mapped through the
        rule's quantile, bin-counted per replica — equivalent in law to
        per-row ``Multinomial(s_r, q)`` but one RNG call and one
        ``bincount`` for the entire fleet, which is what buys the
        vectorized path its headroom over the scalar loop
        (``benchmarks/bench_e16_rbb.py``).
        """
        V = self._V
        nonempty = V > 0
        s = nonempty.sum(axis=1)
        np.subtract(V, 1, out=V, where=nonempty)
        total = int(s.sum())
        if total > 0:
            idx = self._insertion_indices(self._rng.random(total))
            flat = np.repeat(self._rows, s) * self._n + idx
            V += np.bincount(flat, minlength=self._R * self._n).reshape(
                self._R, self._n
            )
        V[:] = -np.sort(-V, axis=1)

    def _step_closed(self) -> None:
        rng = self._rng
        rows = self._rows
        # Remove: every law batches through its shared-quantile inversion.
        rm_idx = self._law.quantile_batch(self._V, rng.random(self._R))
        self._decrement(rows, rm_idx)
        # Place: inverse-transform insertion.
        self._increment(rows, self._insertion_indices(rng.random(self._R)))
        # Optional relocation: fullest bin → rule-selected target, only
        # in rows that pass the coin and the gap-≥-2 condition.
        p = self.spec.p_relocate
        if p > 0:
            coin = rng.random(self._R) < p
            target = self._insertion_indices(rng.random(self._R))
            gap_ok = (self._V[rows, 0] - self._V[rows, target]) >= 2
            sel = np.nonzero(coin & gap_ok)[0]
            if sel.size:
                self._decrement(sel, np.zeros(sel.size, dtype=np.int64))
                self._increment(sel, target[sel])
                self.relocations += int(sel.size)

    def _step_open(self) -> None:
        # Fair coin per replica; removal on the empty state and
        # insertion at the cap are row-wise no-ops (§7 semantics).
        rng = self._rng
        coin = rng.random(self._R) < 0.5
        u_rm = rng.random(self._R)
        u_in = rng.random(self._R)
        counts = self._V.sum(axis=1)
        rm_rows = np.nonzero(coin & (counts > 0))[0]
        if rm_rows.size:
            rm_idx = self._law.quantile_batch(self._V[rm_rows], u_rm[rm_rows])
            self._decrement(rm_rows, rm_idx)
        ins_mask = ~coin
        if self.spec.max_balls is not None:
            ins_mask &= counts < self.spec.max_balls
        ins_rows = np.nonzero(ins_mask)[0]
        if ins_rows.size:
            idx = self._insertion_indices(u_in[ins_rows])
            self._increment(ins_rows, idx)

    # -- the run-length kernel ---------------------------------------------------

    def _advance(self, T: int, hist: np.ndarray | None = None) -> None:
        """Advance the fleet T phases with no per-step Python dispatch.

        Bitwise identical to T calls of :meth:`step`: the sequential
        shapes pre-draw the segment's whole uniform stream in one RNG
        call (row-for-row the same doubles the per-step draws produce)
        and run the run-length kernel; the dense-only shapes (RBB, the
        w(ℓ) law) step the dense reference.  When *hist* is given
        (shape (T, R)), row i receives the per-replica max load after
        phase i — what ``recovery_times`` scans for hitting times.
        """
        if self._dense_only:
            for i in range(T):
                self.step()
                if hist is not None:
                    hist[i] = self._V[:, 0]
            return
        self._go_runs()
        closed = self.spec.kind == "closed"
        k = (4 if self.spec.p_relocate > 0 else 2) if closed else 3
        U = self._rng.random((T, k, self._R))
        phase = self._phase_closed if closed else self._phase_open
        for i in range(T):
            phase(U[i])
            self._t += 1
            if hist is not None:
                hist[i] = self._val[:, 0]

    def _phase_closed(self, u: np.ndarray) -> None:
        rows = self._rows
        self._dec(rows, self._law.quantile_runs(self._val, self._cnt, u[0]))
        self._inc(rows, self._run_of(rows, self._insertion_indices(u[1])))
        p = self.spec.p_relocate
        if p > 0:
            target = self._insertion_indices(u[3])
            col = self._run_of(rows, target)
            gap_ok = (self._val[:, 0] - self._val[rows, col]) >= 2
            sel = np.nonzero((u[2] < p) & gap_ok)[0]
            if sel.size:
                # ⊖ on the top run may splice a run in, so the target's
                # run is looked up again (its bin value is unchanged).
                self._dec(sel, np.zeros(sel.size, dtype=np.int64))
                self._inc(sel, self._run_of(sel, target[sel]))
                self.relocations += int(sel.size)

    def _phase_open(self, u: np.ndarray) -> None:
        coin = u[0] < 0.5
        counts = self.ball_counts()
        rm = np.nonzero(coin & (counts > 0))[0]
        if rm.size:
            self._dec(rm, self._law.quantile_runs(
                self._val[rm], self._cnt[rm], u[1][rm]))
        ins_mask = ~coin
        if self.spec.max_balls is not None:
            ins_mask &= counts < self.spec.max_balls
        ins = np.nonzero(ins_mask)[0]
        if ins.size:
            self._inc(ins, self._run_of(ins, self._insertion_indices(u[2][ins])))

    def _run_of(self, rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Run column holding normalized bin *idx* in each of *rows*."""
        cnt = self._cnt if rows is self._rows else self._cnt[rows]
        return (np.cumsum(cnt, axis=1) <= idx[:, None]).sum(axis=1)

    def _dec(self, rows: np.ndarray, col: np.ndarray) -> None:
        """Runs ⊖: one bin of run *col* moves down to value − 1."""
        K = self._val.shape[1]
        f = rows * K + col
        vf = self._val.reshape(-1)
        cf = self._cnt.reshape(-1)
        v = vf[f]
        single = cf[f] == 1
        merge = vf[f + 1] == v - 1
        moved = single & ~merge  # a lone bin just changes value
        vf[f] -= moved
        cf[f] -= ~moved
        cf[f + 1] += merge
        fix = merge == single  # emptied run, or a new run below
        if fix.any():
            self._splice(rows[fix], col[fix] + ~single[fix], single[fix],
                         v[fix] - 1)

    def _inc(self, rows: np.ndarray, col: np.ndarray) -> None:
        """Runs ⊕: one bin of run *col* moves up to value + 1."""
        K = self._val.shape[1]
        f = rows * K + col
        vf = self._val.reshape(-1)
        cf = self._cnt.reshape(-1)
        v = vf[f]
        single = cf[f] == 1
        # Column 0's flat predecessor is padding (value −1): never merges.
        merge = vf[f - 1] == v + 1
        moved = single & ~merge
        vf[f] += moved
        cf[f] -= ~moved
        cf[f - 1] += merge
        fix = merge == single
        if fix.any():
            self._splice(rows[fix], col[fix], single[fix], v[fix] + 1)

    def _splice(self, rows, at, gone, new_val) -> None:
        """Restore canonical runs: drop the emptied run at column *at*
        where *gone*, else insert the run (*new_val*, 1) there."""
        full = ~gone & (self._cnt[rows, -2] > 0)
        if full.any():
            # The moved bin rejoins these rows as new_val: count it in m.
            r = rows[full]
            m = (self._val[r] * self._cnt[r]).sum(axis=1) + new_val[full]
            self._grow(int(m.min()))
        K = self._val.shape[1]
        ar = np.arange(K)
        src = np.where(gone[:, None], ar + (ar >= at[:, None]),
                       ar - (ar > at[:, None]))
        np.minimum(src, K - 1, out=src)
        val = np.take_along_axis(self._val[rows], src, axis=1)
        cnt = np.take_along_axis(self._cnt[rows], src, axis=1)
        ins = np.nonzero(~gone)[0]
        val[ins, at[ins]] = new_val[ins]
        cnt[ins, at[ins]] = 1
        self._val[rows] = val
        self._cnt[rows] = cnt

    def _grow(self, m: int) -> None:
        """Widen the run padding for a full row of *m* balls.

        A row of m balls holds k distinct values only if
        0 + 1 + … + (k − 1) ≤ m, so at most ⌊√(2m)⌋ + 2 runs; the width
        is capped there (plus the padding column) and a row that would
        need more trips the assertion instead of growing.
        """
        cap = math.isqrt(2 * m) + 3
        K = self._val.shape[1]
        if K >= cap:
            raise AssertionError(
                f"a row would hold more than ⌊√(2m)⌋+2 = {cap - 1} runs (m={m})"
            )
        extra = min(cap, 2 * K) - K
        self._val = np.pad(self._val, ((0, 0), (0, extra)), constant_values=-1)
        self._cnt = np.pad(self._cnt, ((0, 0), (0, extra)))

    def _obs_account(self, steps: int) -> None:
        """Bulk-count *steps* fleet phases (only called when obs is enabled)."""
        reg = obs.metrics()
        reg.counter("batch.steps").inc(steps)
        reg.counter("batch.replica_phases").inc(steps * self._R)

    def _get_probe(self, target_max_load: int | None = None):
        """Lazily built fleet probe (observed runs with probes on only).

        With a *target_max_load* (the ``recovery_times`` campaign) the
        probe carries a whole-fleet recovery monitor at that target;
        plain ``run()`` sweeps use the default Theorem 1 envelope for
        closed specs and no monitor for open ones (no fixed m).
        """
        probe = getattr(self, "_fleet_probe", None)
        if probe is None:
            from repro.obs.probes import (
                FleetProbe,
                ThresholdMonitor,
                max_load_recovery_monitor,
            )

            series = f"batch/{self.spec.name}"
            monitors: tuple = ()
            if target_max_load is not None:
                from repro.coupling.recovery import theorem1_bound

                bound = theorem1_bound(self._m) if self._m >= 2 else None
                monitors = (ThresholdMonitor(
                    "max_load_recovery", series, target_max_load,
                    bound_step=bound,
                    extra={"n": self._n, "m": self._m, "replicas": self._R},
                ),)
            elif self.spec.kind == "closed":
                monitors = (max_load_recovery_monitor(series, self._n, self._m),)
            probe = FleetProbe(series, monitors=monitors)
            self._fleet_probe = probe
        return probe

    # -- checkpoint/resume -----------------------------------------------------

    def state_dict(self) -> dict:
        """Full fleet state for checkpoint/resume.

        The dense (R, n) int64 load matrix, the RNG's
        ``bit_generator.state``, the step count, the relocation counter,
        and — when the lazily built fleet probe exists — its
        estimator/monitor state.
        """
        state: dict = {
            "V": self._V.copy() if self._val is None
            else _densify(self._val, self._cnt),
            "rng": self._rng.bit_generator.state,
            "t": self._t,
            "relocations": self.relocations,
        }
        probe = getattr(self, "_fleet_probe", None)
        if probe is not None:
            state["probe"] = probe.state_dict()
        return state

    def load_state(self, state: dict, *, probe_target: int | None = None) -> None:
        """Restore a :meth:`state_dict` snapshot onto this fleet.

        The fleet must have been constructed with the same (R, n) shape.
        *probe_target* mirrors the ``recovery_times`` target so the
        rebuilt probe carries the same whole-fleet monitor layout the
        checkpointed one had (monitor envelopes then restore exactly
        from the snapshot).
        """
        V = np.array(state["V"], dtype=np.int64)
        if V.shape != (self._R, self._n):
            raise ValueError(
                f"checkpoint fleet shape {V.shape} != process shape "
                f"{(self._R, self._n)}"
            )
        self._V = V
        self._val = self._cnt = None
        self._rng.bit_generator.state = state["rng"]
        self._t = int(state["t"])
        self.relocations = int(state.get("relocations", 0))
        if "probe" in state:
            self._get_probe(probe_target).load_state(state["probe"])

    def run(self, steps: int) -> "VectorizedProcess":
        """Advance all replicas *steps* phases on the dense reference path."""
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        if not obs.enabled():
            for _ in range(steps):
                self.step()
            return self
        with obs.span("batch/run", steps=steps, replicas=self._R,
                      spec=self.spec.name):
            every = obs.probe_interval()
            if every > 0:
                probe = self._get_probe()
                for _ in range(steps):
                    self.step()
                    if self._t % every == 0:
                        probe.observe(self._t, self.max_loads())
            else:
                for _ in range(steps):
                    self.step()
        self._obs_account(steps)
        return self

    def run_batched(self, steps: int, *, batch: int = 128) -> "VectorizedProcess":
        """Advance all replicas *steps* phases, *batch* per Python call.

        Identical fleet trajectory to :meth:`run` — same RNG stream,
        same probe emissions — but on the run-length kernel, with each
        segment's uniforms pre-drawn in a single RNG call.  Segments are
        cut at probe-decimation boundaries
        (:func:`repro.obs.probes.probe_cut`) so observed runs emit the
        exact decimated sequence the per-step loop does.  The
        differential harness (``tests/test_engine_fuzz``) pins
        ``run_batched`` to ``run`` bitwise per replica.
        """
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        batch = check_positive_int("batch", batch)
        if not obs.enabled():
            left = steps
            while left > 0:
                T = min(batch, left)
                self._advance(T)
                left -= T
            return self
        from repro.obs.probes import probe_cut

        with obs.span("batch/run_batched", steps=steps, replicas=self._R,
                      spec=self.spec.name, batch=batch):
            every = obs.probe_interval()
            probe = self._get_probe() if every > 0 else None
            end = self._t + steps
            while self._t < end:
                cut = probe_cut(self._t, min(self._t + batch, end), every)
                self._advance(cut - self._t)
                if probe is not None and self._t % every == 0:
                    probe.observe(self._t, self.max_loads())
        self._obs_account(steps)
        return self

    def recovery_times(
        self,
        target_max_load: int,
        max_steps: int,
        *,
        checkpointer=None,
        resume: dict | None = None,
        batch: int = 1,
    ) -> np.ndarray:
        """Per-replica first time max load ≤ target (−1 where cap hit).

        Replicas that have recovered keep running (the fleet advances
        as a whole); only their hitting times are frozen.  Under
        observability, the recovered fraction and fleet-mean max load
        are recorded at power-of-two checkpoints (series
        ``batch/recovered_fraction``, ``batch/max_load_mean``).

        *checkpointer* (duck-typed: ``maybe_save(step, payload_fn)``)
        is offered a snapshot at each segment end; the payload's
        ``"loop"`` entry plus :meth:`state_dict` is exactly what a later
        call must pass back as *resume* (after :meth:`load_state`) to
        continue the identical trajectory.  Metrics stay deterministic
        because this loop accounts once at the end with the absolute
        ``executed`` count.

        *batch* is the segment length only: the fleet advances on the
        run-length kernel in segments of at most *batch* phases, also
        cut at every probe and ``save_every`` boundary, and the per-step
        hitting-time scan runs over the segment's max-load history —
        the same ``times``, ``timeseries.jsonl`` bytes and committed
        checkpoints at every *batch*.  The one visible difference is
        crash granularity: save *opportunities* (where
        ``REPRO_CRASH_AT=step:K`` may fire) exist only at segment
        ends, so an injected kill lands at the first end ≥ K.  After
        whole-fleet recovery mid-segment the fleet and RNG sit a few
        phases past the hitting step; that overshoot is unobservable —
        no probe, record or checkpoint is emitted past it.
        """
        batch = check_positive_int("batch", batch)
        observing = obs.enabled()
        every = obs.probe_interval() if observing else 0
        probe = self._get_probe(target_max_load) if every > 0 else None
        if resume is not None:
            times = np.asarray(resume["times"], dtype=np.int64).copy()
            done = np.asarray(resume["done"], dtype=bool).copy()
            executed = int(resume["executed"])
            k = int(resume["k"])
        else:
            times = np.full(self._R, -1, dtype=np.int64)
            done = self.max_loads() <= target_max_load
            times[done] = 0
            executed = 0
            k = 0
        save_every = (
            int(getattr(checkpointer, "save_every", 0) or 0)
            if checkpointer is not None else 0
        )
        hist = np.empty((max(1, min(batch, max_steps - k)), self._R),
                        dtype=np.int64)
        while k < max_steps and not done.all():
            end = min(k + batch, max_steps)
            if every > 0:
                end = min(end, k + every - k % every)
            if save_every > 0:
                end = min(end, k + save_every - k % save_every)
            T = end - k
            self._advance(T, hist=hist[:T])
            completed_at = None
            for i in range(T):
                kk = k + i + 1
                newly = (~done) & (hist[i] <= target_max_load)
                if newly.any():
                    times[newly] = kk
                    done |= newly
                if probe is not None and kk % every == 0:
                    # Only the segment end can be a probe boundary (by
                    # the cut above), where the live fleet *is* the
                    # step-kk state.
                    probe.observe(self._t, self.max_loads())
                if observing and (kk & (kk - 1)) == 0:
                    obs.record_sample(
                        "batch/recovered_fraction", kk, float(done.mean())
                    )
                    obs.record_sample(
                        "batch/max_load_mean", kk, float(hist[i].mean())
                    )
                if done.all():
                    completed_at = kk
                    break
            executed = end if completed_at is None else completed_at
            k = end
            if checkpointer is not None and (
                completed_at is None or completed_at == end
            ):
                # Mid-segment completion skips the boundary offer: the
                # live state past the hitting step must not be
                # snapshotted.
                snap = executed
                checkpointer.maybe_save(
                    snap,
                    lambda: {
                        "engine": self.state_dict(),
                        "loop": {
                            "k": snap,
                            "executed": snap,
                            "times": times.copy(),
                            "done": done.copy(),
                        },
                    },
                )
            if completed_at is not None:
                break
        if observing:
            self._obs_account(executed)
            obs.record_sample(
                "batch/recovered_fraction", executed, float(done.mean())
            )
        return times

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(spec={self.spec.name!r}, R={self._R}, "
            f"n={self._n}, m={self._m}, t={self._t})"
        )


class VectorizedEngine:
    """Whole-array engine for specs with inverse-transform insertion laws."""

    name = "vectorized"

    @staticmethod
    def supports(spec: ProcessSpec) -> tuple[bool, str]:
        """A spec vectorizes iff its rule's insertion index is a single
        inverse-transform draw and its removal law batches.  Synchronous
        specs only need the rule half (the release set is state-driven,
        so the removal law is never sampled)."""
        if getattr(spec.rule, "insertion_quantile_batch", None) is None:
            return False, (
                f"rule {spec.rule.name!r} needs sequential sampling "
                "(no load-independent inverse-transform insertion law)"
            )
        if spec.step.synchronous:
            return True, "whole-fleet inverse-transform scatter per step"
        if not spec.removal.batchable:
            return False, f"removal law {spec.removal.name!r} has no vectorized quantile"
        return True, "whole-array (R, n) stepper"

    @staticmethod
    def make(
        spec: ProcessSpec,
        start: Union[LoadVector, np.ndarray, list],
        replicas: int,
        *,
        seed: SeedLike = None,
    ) -> VectorizedProcess:
        """Instantiate the batch simulator for *spec*."""
        return VectorizedProcess(spec, start, replicas, seed=seed)

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

        Runs *draws* as independent replicas of one batch process for
        *steps* phases and reads the per-replica end rows.  The
        chi-square battery of :mod:`repro.verify` compares these
        against :meth:`ExactEngine.transition_row`.
        """
        proc = VectorizedProcess(spec, state, draws, seed=seed)
        proc.run(steps)
        return [tuple(int(x) for x in row) for row in proc.loads]

"""Checkpoint scheduling: ``save_every`` cadence, SIGTERM, crash hooks.

:class:`Checkpointer` is the run-level scheduler the campaign and
verification loops hand their state to.  Engines and loops stay
policy-free: they call :meth:`Checkpointer.maybe_save` at each step (or
chunk) boundary with a zero-argument payload factory, and the manager
decides whether a save is due — on the ``save_every`` cadence, or
because a SIGTERM arrived (graceful preemption: save at the next
boundary, then raise :class:`CheckpointInterrupt` so the caller can
finalize the artifact as ``interrupted`` and exit).

Each committed save is enriched with the pieces a byte-deterministic
resume needs beyond the engine state: the active recorder's stream
cursors (so the resumed run can truncate the post-checkpoint tail of
``events.jsonl`` and of each ``timeseries.jsonl`` lane) and the scoped
metrics-registry snapshot (so resumed counter totals match the
uninterrupted run).

:class:`FleetCheckpoint` is the per-shard counterpart for pooled
fleets (``runs/<id>/shards/shard-<k>.json[.npz]``): workers append
completed item results at item granularity — per-item spawned seed
streams make a from-scratch replay of the in-flight item exact, so
item granularity loses work but never determinism.

Crash injection (tests only) has two faces: the ``REPRO_CRASH_AT``
environment hooks (``step:K`` — SIGKILL at the first save opportunity
at or past step K; ``item:N`` — SIGKILL the whole process group after
the N-th completed fleet item; ``write:N`` lives in the store) for
subprocess harnesses, and :func:`set_crash_hook` +
:class:`SimulatedCrash` for in-process hypothesis property tests.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Any, Callable

from repro.checkpoint.store import (
    _crash_spec,
    read_json_npz,
    save_checkpoint,
    write_json_npz,
)

__all__ = [
    "Checkpointer",
    "CheckpointInterrupt",
    "FleetCheckpoint",
    "SimulatedCrash",
    "set_crash_hook",
]


class CheckpointInterrupt(Exception):
    """Raised after a SIGTERM-triggered save; carries the saved step."""

    def __init__(self, step: int):
        super().__init__(f"checkpointed at step {step} on SIGTERM")
        self.step = int(step)


class SimulatedCrash(Exception):
    """In-process stand-in for SIGKILL, raised by a test crash hook."""


# In-process crash hook for hypothesis tests: called with the current
# step at every save opportunity; may raise SimulatedCrash.
_crash_hook: Callable[[int], None] | None = None


def set_crash_hook(hook: Callable[[int], None] | None) -> Callable[[int], None] | None:
    """Install (or clear) the in-process crash hook; returns the previous."""
    global _crash_hook
    prev = _crash_hook
    _crash_hook = hook
    return prev


def _env_step_crash(step: int) -> None:
    """``REPRO_CRASH_AT=step:K``: SIGKILL at the first opportunity >= K."""
    threshold = _crash_spec("step")
    if threshold is not None and step >= threshold:
        os.kill(os.getpid(), signal.SIGKILL)


# Process-global completed-fleet-item count for the ``item:N`` hook.
_items_done = 0


def crash_after_item() -> None:
    """``REPRO_CRASH_AT=item:N``: SIGKILL the process *group* after item N.

    Called by the fleet runner after each completed item.  Killing the
    group takes the pool parent down with the worker — the harness's
    deterministic stand-in for pulling the plug on a whole campaign.
    """
    global _items_done
    threshold = _crash_spec("item")
    if threshold is None:
        return
    _items_done += 1
    if _items_done >= threshold:
        os.killpg(os.getpgrp(), signal.SIGKILL)


class Checkpointer:
    """Run-level checkpoint scheduler (cadence + SIGTERM + crash hooks).

    *save_every* is the step cadence (0 = only SIGTERM-triggered
    saves).  The SIGTERM handler merely sets a flag; the actual save
    happens at the next :meth:`maybe_save` boundary — engine state is
    never serialized from inside a signal handler.
    """

    def __init__(
        self,
        run_dir: str,
        *,
        kind: str,
        config: dict | None = None,
        save_every: int = 0,
    ):
        if save_every < 0:
            raise ValueError(f"save_every must be >= 0, got {save_every}")
        self.run_dir = run_dir
        self.kind = kind
        self.config = dict(config or {})
        self.save_every = int(save_every)
        self.seq = 0
        self.last_step: int | None = None
        self._sigterm = False
        self._prev_sigterm: Any = None
        self._install_sigterm()

    # -- SIGTERM ---------------------------------------------------------------

    def _install_sigterm(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return
        try:
            prev = signal.getsignal(signal.SIGTERM)

            def _request_save(signum, frame):
                self._sigterm = True

            signal.signal(signal.SIGTERM, _request_save)
            self._prev_sigterm = prev
        except (ValueError, OSError):  # pragma: no cover - exotic signal state
            self._prev_sigterm = None

    def close(self) -> None:
        """Restore the previous SIGTERM handler (idempotent)."""
        if self._prev_sigterm is not None:
            try:
                if threading.current_thread() is threading.main_thread():
                    signal.signal(signal.SIGTERM, self._prev_sigterm)
            except (ValueError, OSError):  # pragma: no cover
                pass
            self._prev_sigterm = None

    @property
    def sigterm_requested(self) -> bool:
        """True once a SIGTERM arrived (save due at the next boundary)."""
        return self._sigterm

    # -- saving ----------------------------------------------------------------

    def maybe_save(self, step: int, payload_fn: Callable[[], dict]) -> bool:
        """Offer a save opportunity at *step*; returns True if one committed.

        Crash hooks fire first (they model a kill *before* the save);
        then the save runs if the cadence or a pending SIGTERM says so.
        A SIGTERM-triggered save raises :class:`CheckpointInterrupt`
        after committing, unwinding to the campaign's finalization.
        """
        hook = _crash_hook
        if hook is not None:
            hook(step)
        _env_step_crash(step)
        due = self._sigterm or (
            self.save_every > 0 and step % self.save_every == 0
        )
        if not due:
            return False
        self.save(step, payload_fn())
        if self._sigterm:
            raise CheckpointInterrupt(step)
        return True

    def save(self, step: int, state: dict) -> None:
        """Commit one checkpoint: engine state + recorder/metrics cursors."""
        from repro import obs
        from repro.obs import runtime

        state = dict(state)
        rec = runtime.get_recorder()
        stream_state = getattr(rec, "stream_state", None)
        if stream_state is not None:
            state["recorder"] = stream_state()
        if obs.enabled():
            state["metrics"] = obs.metrics().snapshot()
        self.seq += 1
        save_checkpoint(
            self.run_dir,
            {
                "kind": self.kind,
                "step": int(step),
                "config": self.config,
                "state": state,
            },
            seq=self.seq,
        )
        self.last_step = int(step)
        set_meta = getattr(rec, "set_meta", None)
        if set_meta is not None:
            set_meta(last_checkpoint_step=int(step))


class FleetCheckpoint:
    """Per-shard item-granularity checkpoints for pooled fleets.

    One ``shard-<k>.json[.npz]`` per telemetry lane under
    ``<run_dir>/shards/``, holding the completed ``(result,
    metrics_snapshot)`` pairs plus one cumulative stream cursor per
    item (``timeseries.jsonl`` records the lane had shipped when the
    item finished): ``{"done": [...], "cursors": [int, ...]}``.
    Written atomically by the worker after every completed item; read
    by the parent to preload completed work on restart and to truncate
    the dead lane's post-checkpoint tail.

    Instances hold only the directory path, so they pickle into pool
    workers for free.
    """

    def __init__(self, run_dir: str):
        self.dir = os.path.join(run_dir, "shards")

    def _path(self, shard: int) -> str:
        return os.path.join(self.dir, f"shard-{int(shard)}.json")

    def read(self, shard: int) -> dict | None:
        """The shard's committed checkpoint, or ``None``."""
        return read_json_npz(self._path(shard))

    def write(self, shard: int, payload: dict) -> None:
        """Atomically commit the shard's progress."""
        os.makedirs(self.dir, exist_ok=True)
        write_json_npz(self._path(shard), payload)

    def _shards(self) -> list[int]:
        """Shard indices with a committed checkpoint file."""
        out: list[int] = []
        if not os.path.isdir(self.dir):
            return out
        for name in os.listdir(self.dir):
            if not (name.startswith("shard-") and name.endswith(".json")):
                continue
            try:
                out.append(int(name[len("shard-"):-len(".json")]))
            except ValueError:
                continue
        return sorted(out)

    def reconcile(self, disk: dict[int, int]) -> None:
        """Roll each shard back to the telemetry its parent actually wrote.

        A worker commits its shard after *enqueuing* an item's telemetry
        on the bus; a SIGKILL can take the parent down before the drain
        thread materializes those records, leaving ``timeseries.jsonl``
        behind the shard's cursors.  Given the per-lane record counts
        found on disk (``{shard: records}``), truncate each shard's
        done-item list to the longest prefix whose cumulative cursors
        are fully on disk — the rolled-back items replay exactly,
        re-shipping the lost telemetry.
        """
        for shard in self._shards():
            doc = self.read(shard)
            if not doc:
                continue
            done = list(doc["done"])
            cursors = [int(c) for c in doc["cursors"]]
            on_disk = disk.get(shard, 0)
            p = 0
            while p < len(cursors) and cursors[p] <= on_disk:
                p += 1  # cumulative => monotone
            if p < len(done):
                self.write(shard, {"done": done[:p], "cursors": cursors[:p]})

    def lane_counts(self) -> dict[int, int]:
        """Stream cursor per lane: ``{shard: records}``.

        What the resuming parent feeds the recorder's lane truncation —
        everything a dead lane emitted past this count replays when its
        in-flight item re-runs.
        """
        out: dict[int, int] = {}
        for shard in self._shards():
            doc = self.read(shard)
            if doc is not None:
                cursors = doc["cursors"]
                out[shard] = int(cursors[-1]) if cursors else 0
        return out

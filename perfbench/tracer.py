"""Layer tracing for the benchmark: spans around each layer's public functions.

:meth:`Tracer.install` wraps the functions listed in :func:`targets`.
Every call of a wrapped function becomes one span -- name, layer,
parent span, process, thread, start, end -- kept in memory; a span's
self time is its duration minus the time its child spans cover, and a
layer's self time is the sum over its spans.  Nothing inside ``repro``
is changed: the wrappers live here and are removed by
:meth:`Tracer.uninstall`.

Campaign pools start their workers by fork, so wrappers installed
before the pool starts carry into the workers.  A worker buffers its
spans and hands them back over a pipe each time it returns to its top
level -- after each replica's ``run_until`` and after each shard
checkpoint write -- and a collector thread in the parent merges them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import multiprocessing as mp
import os
import statistics
import threading
import time

#: One span: (id, parent id, name, layer, pid, thread, start, end, self_s, counts).
SID, PARENT, NAME, LAYER, PID, THREAD, T0, T1, SELF, COUNTS = range(10)

#: Recorder methods; called off the main thread they are the bus drain.
RECORDER_METHODS = (
    "record_point", "record_monitor", "record_heartbeat", "record_bye",
    "record", "emit", "flush", "finish",
)
CERTIFIERS = (
    "certify_right_oriented", "certify_lemma_41", "certify_claim_53",
    "certify_edge_lemmas", "certify_rbb_invariance", "certify_rbb_recovery",
    "certify_rbb_stationary",
)


# -- per-call counters ---------------------------------------------------------
# ``enter(args, kwargs)`` returns a token; ``leave(token, args, kwargs,
# result)`` returns the counts attached to the span.

def _step_count(args, kwargs):
    return args[0].t


def _fleet_counts(t0, args, kwargs, result):
    import numpy as np

    proc = args[0]
    times = np.asarray(result)
    replica_phases = proc.replicas * (proc.t - t0)
    return {
        "replica_phases": replica_phases,
        "fleet_phases": replica_phases,
        "useful_phases": int(times[times >= 0].sum()),
    }


def _sample_counts(_, args, kwargs, result):
    draws = args[2] if len(args) > 2 else kwargs["draws"]
    return {"replica_phases": int(draws) * int(kwargs.get("steps", 1))}


def _run_until_counts(t0, args, kwargs, result):
    return {"phases": args[0].t - t0}


def _save_counts(_, args, kwargs, result):
    ckpt = args[0]
    files = ["checkpoint.json", f"checkpoint-{ckpt.seq}.npz"]
    return {"commits": 1, "bytes": _sizes(ckpt.run_dir, files)}


def _shard_write_counts(_, args, kwargs, result):
    fleet, shard = args[0], int(args[1])
    files = [f"shard-{shard}.json", f"shard-{shard}.npz"]
    return {"commits": 1, "bytes": _sizes(fleet.dir, files)}


def _certificate_counts(_, args, kwargs, result):
    return {"certificates": 1, "states_checked": int(result.checked)}


def _record_counts(_, args, kwargs, result):
    return {"records": 1}


def _heartbeat_counts(_, args, kwargs, result):
    return {"heartbeats": 1}


def _sizes(directory, names):
    total = 0
    for name in names:
        try:
            total += os.path.getsize(os.path.join(directory, name))
        except OSError:
            pass
    return total


def targets() -> list[tuple]:
    """``(owner, attribute, layer, enter, leave)`` for every traced function."""
    from repro.balls.process import DynamicAllocationProcess
    from repro.checkpoint.manager import Checkpointer, FleetCheckpoint
    from repro.engine.exact import ExactEngine
    from repro.engine.scalar import ScalarEngine
    from repro.engine.vectorized import VectorizedEngine, VectorizedProcess
    from repro.obs.bus import BusSender
    from repro.obs.probes import ChainProbe, FleetProbe
    from repro.obs.recorder import RunRecorder
    from repro.utils import parallel
    from repro.verify import runner
    from repro.verify.certificates import CertificateSet

    recorder_counts = {
        "record_point": _record_counts,
        "record_monitor": _record_counts,
        "record_heartbeat": _heartbeat_counts,
    }
    return [
        (VectorizedProcess, "recovery_times", "engine", _step_count, _fleet_counts),
        (ScalarEngine, "sample_transitions", "engine", None, _sample_counts),
        (VectorizedEngine, "sample_transitions", "engine", None, _sample_counts),
        (ExactEngine, "transition_row", "exact", None, None),
        (DynamicAllocationProcess, "run_until", "balls", _step_count, _run_until_counts),
        (FleetProbe, "observe", "probes", None, None),
        (ChainProbe, "observe", "probes", None, None),
        *[
            (RunRecorder, name, "recorder", None, recorder_counts.get(name))
            for name in RECORDER_METHODS
        ],
        (BusSender, "record_point", "bus", None, None),
        (BusSender, "record_monitor", "bus", None, None),
        (Checkpointer, "maybe_save", "checkpoint", None, None),
        (Checkpointer, "save", "checkpoint", None, _save_counts),
        (FleetCheckpoint, "write", "checkpoint", None, _shard_write_counts),
        (parallel, "parallel_replica_map", "pool", None, None),
        (runner, "run_battery", "verify", None, _certificate_counts),
        *[(runner, name, "verify", None, _certificate_counts) for name in CERTIFIERS],
        (CertificateSet, "write", "verify", None, None),
    ]


class Tracer:
    """In-memory span recorder for one traced workload call."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple] = []
        self._queue = None
        self._collector: threading.Thread | None = None
        self._in_worker = False
        self._pid = os.getpid()

    # -- installing ----------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every target and start collecting worker spans."""
        for owner, attr, layer, enter, leave in targets():
            raw = inspect.getattr_static(owner, attr)
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            func = raw.__func__ if kind else raw
            name = attr if inspect.ismodule(owner) else f"{owner.__name__}.{attr}"
            wrapper = self._wrap(func, name, layer, enter, leave)
            setattr(owner, attr, kind(wrapper) if kind else wrapper)
            self._patched.append((owner, attr, raw))
        self._queue = mp.get_context("fork").SimpleQueue()
        self._collector = threading.Thread(
            target=self._collect, name="perfbench-span-collector", daemon=True
        )
        self._collector.start()
        os.register_at_fork(after_in_child=self._after_fork)
        return self

    def uninstall(self) -> None:
        """Restore the originals and merge every span workers handed back."""
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()
        if self._collector is not None:
            self._queue.put(None)
            self._collector.join()
            self._queue.close()
            self._queue = self._collector = None

    def _collect(self) -> None:
        while (batch := self._queue.get()) is not None:
            self.spans.extend(batch)

    def _after_fork(self) -> None:
        # A forked pool worker starts with no open span and no spans of
        # its parent; it ships its own back through the inherited queue.
        if self._queue is None:
            return
        self.spans = []
        self._local = threading.local()
        self._in_worker = True
        self._pid = os.getpid()

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = [(self._pid, next(self._ids)), parent, name, layer, 0.0,
                 time.perf_counter()]
        stack.append(frame)
        return frame

    def _close(self, frame: list, counts: dict | None) -> None:
        t1 = time.perf_counter()
        stack = self._stack()
        stack.pop()
        sid, parent, name, layer, child_s, t0 = frame
        duration = t1 - t0
        if stack:
            stack[-1][4] += duration
        thread = threading.current_thread()
        main = thread is threading.main_thread()
        self.spans.append((sid, parent, name, layer, self._pid,
                           "main" if main else thread.name, t0, t1,
                           duration - child_s, counts))
        if self._in_worker and main and not stack:
            self._queue.put(self.spans)
            self.spans = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the benchmark itself."""
        frame = self._open(name, layer)
        try:
            yield
        finally:
            self._close(frame, None)

    def _wrap(self, func, name, layer, enter, leave):
        tracer = self
        drain_layer = "bus" if layer == "recorder" else layer

        def traced(*args, **kwargs):
            main = threading.current_thread() is threading.main_thread()
            frame = tracer._open(name, layer if main else drain_layer)
            token = enter(args, kwargs) if enter is not None else None
            counts = None
            try:
                result = func(*args, **kwargs)
                if leave is not None:
                    counts = leave(token, args, kwargs, result)
                return result
            finally:
                tracer._close(frame, counts)

        return functools.wraps(func)(traced)

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        keys = ("id", "parent", "name", "layer", "pid", "thread", "start",
                "end", "self_s", "counts")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans: list[tuple], root_name: str = "workload") -> dict:
    """The per-layer metrics of one traced call, computed from its spans."""
    self_s: dict[str, float] = {}
    name_self: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[tuple[str, str], float] = {}
    commit_s: list[float] = []
    pool_s = 0.0
    busy: dict[int, float] = {}
    root = None
    parent_pid = None
    for span in spans:
        if span[NAME] == root_name:
            root, parent_pid = span, span[PID]
    for span in spans:
        name, layer, duration = span[NAME], span[LAYER], span[T1] - span[T0]
        self_s[layer] = self_s.get(layer, 0.0) + span[SELF]
        name_self[name] = name_self.get(name, 0.0) + span[SELF]
        calls[name] = calls.get(name, 0) + 1
        for key, value in (span[COUNTS] or {}).items():
            counts[layer, key] = counts.get((layer, key), 0) + value
        if name in ("Checkpointer.save", "FleetCheckpoint.write"):
            commit_s.append(duration)
        if name == "parallel_replica_map":
            pool_s += duration
        if span[PID] != parent_pid and span[PARENT] is None and span[THREAD] == "main":
            busy[span[PID]] = busy.get(span[PID], 0.0) + duration

    def count(layer, key):
        return counts.get((layer, key), 0)

    engine_phases = count("engine", "replica_phases")
    balls_phases = count("balls", "phases")
    wall = root[T1] - root[T0] if root else 0.0
    busy_s = list(busy.values())
    return {
        "engine.self_s": self_s.get("engine", 0.0),
        "engine.replica_phases": engine_phases,
        "engine.ns_per_replica_phase": _per(self_s.get("engine", 0.0) * 1e9, engine_phases),
        "engine.useful_frac": _per(count("engine", "useful_phases"),
                                   count("engine", "fleet_phases")),
        "engine.sample_transitions_s": name_self.get("ScalarEngine.sample_transitions", 0.0)
        + name_self.get("VectorizedEngine.sample_transitions", 0.0),
        "engine.sample_transitions_calls": calls.get("ScalarEngine.sample_transitions", 0)
        + calls.get("VectorizedEngine.sample_transitions", 0),
        "exact.transition_row_s": name_self.get("ExactEngine.transition_row", 0.0),
        "exact.transition_row_calls": calls.get("ExactEngine.transition_row", 0),
        "balls.self_s": self_s.get("balls", 0.0),
        "balls.phases": balls_phases,
        "balls.ns_per_phase": _per(self_s.get("balls", 0.0) * 1e9, balls_phases),
        "probes.self_s": self_s.get("probes", 0.0),
        "probes.observes": calls.get("FleetProbe.observe", 0) + calls.get("ChainProbe.observe", 0),
        "recorder.self_s": self_s.get("recorder", 0.0),
        "recorder.records": count("recorder", "records") + count("bus", "records"),
        "recorder.finish_s": sum(s[T1] - s[T0] for s in spans if s[NAME] == "RunRecorder.finish"),
        "bus.messages": count("bus", "records"),
        "bus.heartbeats": count("bus", "heartbeats"),
        "bus.drain_s": sum(
            s[SELF] for s in spans if s[PID] == parent_pid and s[THREAD] != "main"
        ),
        "checkpoint.commits": count("checkpoint", "commits"),
        "checkpoint.self_s": self_s.get("checkpoint", 0.0),
        "checkpoint.commit_p50_s": statistics.median(commit_s) if commit_s else 0.0,
        "checkpoint.bytes": count("checkpoint", "bytes"),
        "pool.wall_s": pool_s,
        "pool.busy_s": sum(busy_s),
        "pool.wait_s": pool_s - max(busy_s) if busy_s else 0.0,
        "pool.imbalance": _per(max(busy_s), statistics.mean(busy_s)) if busy_s else 0.0,
        "verify.battery_s": name_self.get("run_battery", 0.0),
        "verify.lemmas_s": sum(name_self.get(name, 0.0) for name in CERTIFIERS),
        "verify.certificates": count("verify", "certificates"),
        "verify.states_checked": count("verify", "states_checked"),
        "trace.coverage": 1.0 - _per(root[SELF], wall) if root else 0.0,
    }


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0

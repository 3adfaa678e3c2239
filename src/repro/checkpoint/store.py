"""Schema-versioned atomic checkpoint files: ``checkpoint.json[.npz]``.

A checkpoint is one JSON document (``checkpoint.json``) plus, when the
state carries numpy arrays, one sidecar archive
(``checkpoint-<seq>.npz``).  Atomicity follows the classic
write-temp-then-rename protocol, arranged so that *every* crash window
leaves a consistent pair on disk:

1. the arrays are extracted from the state tree and written to a
   *sequence-numbered* archive (``checkpoint-<seq>.npz``) — a crash
   here leaves a partial archive under a name nothing references, while
   the previous ``checkpoint.json`` still points at the previous,
   intact archive;
2. the JSON document (holding ``{"__ndarray__": key}`` placeholders
   and the archive's file name) is written to a temp file, fsynced, and
   committed with :func:`os.replace` — the rename *is* the commit
   point;
3. archives no longer referenced are garbage-collected after the
   commit.

The crash-injection harness (``tests/crashkit.py``) exploits the
``REPRO_CRASH_AT=write:N`` hook below to SIGKILL the process exactly
between steps 1 and 2 of the N-th save, proving the protocol: a resume
from that wreckage must land on the previous checkpoint.
"""

from __future__ import annotations

import json
import os
import signal
from typing import Any

import numpy as np

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_FILE",
    "checkpoint_step",
    "save_checkpoint",
    "load_checkpoint",
    "write_json_npz",
    "read_json_npz",
]

#: Schema tag stamped into every checkpoint document.
CHECKPOINT_SCHEMA = "repro.checkpoint/2"

#: The committed pointer file inside a run directory.
CHECKPOINT_FILE = "checkpoint.json"

# Process-global count of checkpoint writes, driving the ``write:N``
# crash-injection hook (SIGKILL before the N-th commit rename).
_write_count = 0


def _crash_spec(event: str) -> int | None:
    """The threshold of *event* in ``REPRO_CRASH_AT``, or ``None``.

    The variable holds comma-separated ``kind:N`` specs, e.g.
    ``"write:2"`` or ``"step:500,write:3"``.
    """
    raw = os.environ.get("REPRO_CRASH_AT", "")
    for part in raw.split(","):
        kind, _, val = part.partition(":")
        if kind.strip() == event and val.strip():
            try:
                return int(val)
            except ValueError:
                return None
    return None


def _maybe_crash(event: str, count: int) -> None:
    """SIGKILL this process when the crash schedule says so (tests only)."""
    threshold = _crash_spec(event)
    if threshold is not None and count >= threshold:
        os.kill(os.getpid(), signal.SIGKILL)


def _to_jsonable(obj: Any, arrays: dict[str, np.ndarray]) -> Any:
    """Recursively strip numpy out of *obj*; arrays land in *arrays*."""
    if isinstance(obj, np.ndarray):
        key = f"a{len(arrays)}"
        arrays[key] = obj
        return {"__ndarray__": key}
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v, arrays) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v, arrays) for v in obj]
    return obj


def _from_jsonable(obj: Any, arrays: Any) -> Any:
    """Inverse of :func:`_to_jsonable`: re-inflate array placeholders."""
    if isinstance(obj, dict):
        if set(obj.keys()) == {"__ndarray__"}:
            return np.asarray(arrays[obj["__ndarray__"]])
        return {k: _from_jsonable(v, arrays) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_from_jsonable(v, arrays) for v in obj]
    return obj


def write_json_npz(path: str, payload: dict) -> None:
    """Atomically write *payload* (numpy allowed) to ``<path>`` + sidecar.

    The generic primitive behind both the run-level checkpoint and the
    per-shard fleet checkpoints: arrays go to ``<path minus .json>.npz``
    first, then the JSON commits via rename.  Readers that find the
    JSON are guaranteed a matching, complete archive.
    """
    arrays: dict[str, np.ndarray] = {}
    doc = _to_jsonable(payload, arrays)
    base = path[:-5] if path.endswith(".json") else path
    if arrays:
        npz_path = base + ".npz"
        tmp_npz = npz_path + ".tmp"
        with open(tmp_npz, "wb") as f:
            np.savez(f, **arrays)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp_npz, npz_path)
        doc["npz"] = os.path.basename(npz_path)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, separators=(",", ":"), sort_keys=True)
        f.write("\n")
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def read_json_npz(path: str) -> dict | None:
    """Read a :func:`write_json_npz` document; ``None`` if absent/corrupt."""
    if not os.path.exists(path):
        return None
    try:
        with open(path) as f:
            doc = json.load(f)
    except (json.JSONDecodeError, OSError):
        return None
    if not isinstance(doc, dict):
        return None
    npz_name = doc.pop("npz", None)
    arrays: dict[str, np.ndarray] = {}
    if npz_name is not None:
        npz_path = os.path.join(os.path.dirname(path) or ".", npz_name)
        try:
            with np.load(npz_path) as npz:
                arrays = {k: npz[k] for k in npz.files}
        except (OSError, ValueError):
            return None
    return _from_jsonable(doc, arrays)


def save_checkpoint(run_dir: str, payload: dict, *, seq: int) -> str:
    """Commit one run-level checkpoint into *run_dir* (atomic).

    The array sidecar is sequence-numbered (``checkpoint-<seq>.npz``)
    so an in-progress save never touches the archive the committed
    ``checkpoint.json`` references; stale archives are removed after
    the commit.  Returns the committed JSON path.
    """
    global _write_count
    os.makedirs(run_dir, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    doc = _to_jsonable({**payload, "schema": CHECKPOINT_SCHEMA, "seq": int(seq)},
                       arrays)
    npz_name = None
    if arrays:
        npz_name = f"checkpoint-{int(seq)}.npz"
        npz_path = os.path.join(run_dir, npz_name)
        with open(npz_path, "wb") as f:
            np.savez(f, **arrays)
            f.flush()
            os.fsync(f.fileno())
        doc["npz"] = npz_name
    _write_count += 1
    # Crash-injection window: archive written, pointer not yet renamed.
    _maybe_crash("write", _write_count)
    path = os.path.join(run_dir, CHECKPOINT_FILE)
    tmp = path + f".tmp-{int(seq)}"
    with open(tmp, "w") as f:
        json.dump(doc, f, separators=(",", ":"), sort_keys=True)
        f.write("\n")
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    # GC: every archive except the one the committed pointer references.
    for name in os.listdir(run_dir):
        if (
            name.startswith("checkpoint-")
            and name.endswith(".npz")
            and name != npz_name
        ):
            try:
                os.remove(os.path.join(run_dir, name))
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
    return path


def checkpoint_step(run_dir: str) -> int | None:
    """The committed checkpoint's step, or ``None`` when there is none.

    A JSON-only peek (the array sidecar is never opened), cheap enough
    for dashboards: ``obs watch``/``summarize`` use it to report
    "resumable at step K" for runs whose ``meta.json`` never recorded a
    cursor — the SIGKILL case.
    """
    path = os.path.join(run_dir, CHECKPOINT_FILE)
    try:
        with open(path) as f:
            doc = json.load(f)
    except (FileNotFoundError, json.JSONDecodeError, OSError):
        return None
    if not isinstance(doc, dict) or doc.get("schema") != CHECKPOINT_SCHEMA:
        return None
    step = doc.get("step")
    return int(step) if isinstance(step, (int, float)) else None


def load_checkpoint(run_dir: str) -> dict | None:
    """Load the committed checkpoint of *run_dir*; ``None`` when there is none.

    Tolerates wreckage from a crash mid-save: a dangling temp file or an
    orphan archive is ignored — only the committed pointer counts.  A
    checkpoint written under another schema raises :class:`ValueError`
    naming both schemas (there is no converter).
    """
    doc = read_json_npz(os.path.join(run_dir, CHECKPOINT_FILE))
    if doc is None:
        return None
    if doc.get("schema") != CHECKPOINT_SCHEMA:
        raise ValueError(
            f"{run_dir!r} holds a checkpoint with schema "
            f"{doc.get('schema')!r}; this build reads {CHECKPOINT_SCHEMA!r} "
            "only (rerun the campaign to resume it)"
        )
    return doc

"""``repro resume <run-dir>``: continue an interrupted run in place.

The one entry point for every checkpointed run kind: read the
committed ``checkpoint.json``, dispatch on its ``kind`` tag, and hand
the document to the matching runner — the campaign orchestration for
``kind == "campaign"`` (all engines, serial or pooled), the
certificate loop for ``kind == "verify"``.  The resumed run reuses the
*same* run directory: artifact streams are truncated back to the
checkpoint's cursors and appended in place, so the finished artifact
is byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.checkpoint.store import load_checkpoint

__all__ = ["resume"]


def resume(run_dir: str) -> Any:
    """Resume the interrupted run in *run_dir* from its last checkpoint.

    Returns whatever the underlying runner returns — the campaign
    summary dict for ``kind == "campaign"``, the
    :class:`~repro.verify.certificates.CertificateSet` for
    ``kind == "verify"``.  Raises :class:`FileNotFoundError` when the
    directory holds no committed checkpoint and :class:`ValueError`
    when the checkpoint has another schema, the run already finished
    cleanly (nothing to resume) or the checkpoint kind is unknown.
    """
    doc = load_checkpoint(run_dir)
    if doc is None:
        raise FileNotFoundError(
            f"{run_dir!r} holds no committed checkpoint.json "
            "(was the run started with --save-every?)"
        )
    meta_path = os.path.join(run_dir, "meta.json")
    if os.path.exists(meta_path):
        status = None
        try:
            with open(meta_path) as f:
                status = json.load(f).get("status")
        except (json.JSONDecodeError, OSError):
            pass  # torn meta from a kill: resumable
        if status == "ok":
            raise ValueError(
                f"{run_dir!r} already completed (status ok); nothing to resume"
            )
    kind = doc.get("kind")
    if kind == "campaign":
        from repro.checkpoint.campaign import run_checkpointed_campaign

        return run_checkpointed_campaign(
            run_dir, config=doc.get("config") or {}, resume_doc=doc
        )
    if kind == "verify":
        from repro.verify.runner import resume_verification

        return resume_verification(run_dir, doc)
    raise ValueError(f"unknown checkpoint kind {kind!r} in {run_dir!r}")

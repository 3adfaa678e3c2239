"""Top-level verification runs: lemma certificates + acceptance battery.

``run_verification(VerifyConfig.quick())`` certifies the paper's
coupling lemmas (Sections 3–6) by exhaustive enumeration and runs the
statistical engine-acceptance battery, returning a
:class:`~repro.verify.certificates.CertificateSet`.  With ``out`` set,
the run is recorded through the observability layer: one
``{"type": "certificate"}`` event per certificate lands in
``events.jsonl`` (so ``repro obs summarize`` renders a certificate
table) and the full set is written to ``<out>/certificates.json`` —
byte-identical across runs with the same config and seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.balls.rules import ABKURule, AdaptiveRule, threshold_chi
from repro.verify.battery import BatteryConfig, run_battery
from repro.verify.certificates import Certificate, CertificateSet
from repro.verify.lemmas import (
    certify_claim_53,
    certify_edge_lemmas,
    certify_lemma_41,
    certify_right_oriented,
)
from repro.verify.rbb import (
    certify_rbb_invariance,
    certify_rbb_recovery,
    certify_rbb_stationary,
)

__all__ = ["VerifyConfig", "resume_verification", "run_verification"]


@dataclass(frozen=True)
class VerifyConfig:
    """Domain sizes and options of one verification run."""

    mode: str = "quick"
    n: int = 4  # bins for the Ω_m lemma enumerations
    m: int = 4  # balls for the Ω_m lemma enumerations
    edge_n: int = 4  # vertices for the §6 edge orientation metric
    seed: int = 0  # battery seed (the lemma certificates are exact)
    battery: bool = True
    out: str | None = None  # artifact directory (None: no artifacts)

    @classmethod
    def quick(cls, **overrides) -> "VerifyConfig":
        return cls(mode="quick", **overrides)

    @classmethod
    def full(cls, **overrides) -> "VerifyConfig":
        defaults = {"n": 4, "m": 6, "edge_n": 5}
        defaults.update(overrides)
        return cls(mode="full", **defaults)

    def battery_config(self) -> BatteryConfig:
        if self.mode == "full":
            return BatteryConfig.full(seed=self.seed)
        return BatteryConfig.quick(seed=self.seed)


def _certificate_factories(config: VerifyConfig) -> list:
    """One zero-argument factory per certificate, in canonical order.

    The factory list is the checkpoint unit: a checkpointed run saves
    after each finished certificate, and a resume re-derives this list
    from the config and skips the prefix already on disk.
    """
    abku = ABKURule(2)
    adap = AdaptiveRule(threshold_chi(1, 3, 2), name="adap[1|3@2]")
    m_values = tuple(range(1, min(config.m, 4) + 1))
    factories = [
        lambda: certify_right_oriented(abku, config.n, m_values),
        lambda: certify_right_oriented(adap, min(config.n, 3), m_values),
        lambda: certify_lemma_41(abku, config.n, config.m),
        lambda: certify_claim_53(abku, config.n, config.m),
        lambda: certify_edge_lemmas(config.edge_n),
        lambda: certify_rbb_invariance(config.n, config.m),
        lambda: certify_rbb_recovery(config.n, config.m, seed=config.seed),
        lambda: certify_rbb_stationary(config.n, config.m),
    ]
    if config.battery:
        factories.append(lambda: run_battery(config.battery_config()))
    return factories


def _certificates(config: VerifyConfig) -> list[Certificate]:
    return [factory() for factory in _certificate_factories(config)]


def run_verification(
    config: VerifyConfig,
    *,
    checkpoint: bool = False,
    _resume_doc: dict | None = None,
) -> CertificateSet:
    """Run every certificate of *config*; record artifacts when ``out`` is set.

    With *checkpoint* set (requires ``out``), the run commits a
    checkpoint after every finished certificate and finalizes a resumable
    artifact on SIGTERM (raising
    :class:`~repro.checkpoint.manager.CheckpointInterrupt`);
    ``repro resume <out-dir>`` finishes the remaining certificates and
    produces the same artifact bytes as an uninterrupted run.
    """
    meta = {k: v for k, v in asdict(config).items() if k != "out"}
    if config.out is None:
        return CertificateSet(_certificates(config), config=meta)
    import os

    from repro.obs.recorder import observe_resumed_run, observe_run

    if not checkpoint and _resume_doc is None:
        with observe_run(
            config.out, meta={"experiment_id": "verify", **meta}
        ) as rec:
            certs = _certificates(config)
            result = CertificateSet(certs, config=meta)
            for cert in certs:
                rec.emit(cert.event())
            rec.set_meta(verdict="pass" if result.passed else "fail")
            result.write(os.path.join(config.out, "certificates.json"))
        return result

    from repro.checkpoint.manager import Checkpointer, CheckpointInterrupt

    certs: list[Certificate] = []
    state = dict(_resume_doc.get("state") or {}) if _resume_doc else {}
    if _resume_doc is not None:
        certs = [Certificate.from_dict(d) for d in state.get("done", [])]
        rec_state = state.get("recorder") or {}
        keep = {
            "events": int(rec_state.get("events", 0)),
            "lanes": rec_state.get("lanes") or {},
        }
        ctx = observe_resumed_run(
            config.out,
            meta={"experiment_id": "verify", **meta},
            trace=False,
            keep=keep,
            metrics=state.get("metrics"),
        )
    else:
        # Tracing stays off on the checkpointed path: span events carry
        # wall-clock times, which would break the byte-identical
        # killed-vs-uninterrupted invariant.
        ctx = observe_run(
            config.out, meta={"experiment_id": "verify", **meta}, trace=False
        )
    ckpt = Checkpointer(
        config.out, kind="verify", config=meta, save_every=1
    )
    try:
        with ctx as rec:
            if _resume_doc is not None:
                # Restore the last committed save's meta stamp: a resume
                # with no remaining certificates never saves again, and
                # the final meta must match an uninterrupted run's.
                rec.set_meta(last_checkpoint_step=int(_resume_doc["step"]))
            try:
                for factory in _certificate_factories(config)[len(certs):]:
                    certs.append(factory())
                    ckpt.maybe_save(
                        len(certs),
                        lambda: {"done": [c.to_dict() for c in certs]},
                    )
            except CheckpointInterrupt:
                rec.set_meta(status="interrupted")
                raise
            result = CertificateSet(certs, config=meta)
            for cert in certs:
                rec.emit(cert.event())
            rec.set_meta(verdict="pass" if result.passed else "fail")
            result.write(os.path.join(config.out, "certificates.json"))
    finally:
        ckpt.close()
    return result


def resume_verification(run_dir: str, doc: dict) -> CertificateSet:
    """Continue an interrupted ``kind == "verify"`` run from its checkpoint."""
    cfg = dict(doc.get("config") or {})
    cfg.pop("out", None)
    config = VerifyConfig(out=run_dir, **cfg)
    return run_verification(config, checkpoint=True, _resume_doc=doc)

"""Self-tests of the benchmark: names, metrics, output checks and comparison.

    python3 perfbench/selftest.py

Runs each workload once untraced and once traced at a shrunken size,
in this process, and checks that together they yield exactly the
metrics ``BENCHMARK.json`` names; feeds the output checks a capped
replica, a fleet outside its band, a missing checkpoint and a failed
certificate; and checks that ``--compare`` flags differing fingerprints.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import sys
import unittest
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from call import measure_call  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    check_certificates,
    check_recovery_band,
    check_segment,
    m_ln_m,
)

#: Small arguments that keep each workload's layers but run in about a second.
SHRUNK = {
    "campaign_a_vec": dict(n=64, replicas=8),
    "segment_1e5_ckpt": dict(n=2000, replicas=4, target=1980, max_steps=80, save_every=5),
    "campaign_b_pool": dict(n=32, replicas=4),
    "verify_quick": {},  # the quick configuration is already the small one
}
SCRATCH = run.WORK / "selftest"


def names(entries: list[dict]) -> set[str]:
    return {e["name"] for e in entries}


class ShrunkenRuns(unittest.TestCase):
    """One untraced and one traced call of every workload, shrunken."""

    records: dict[str, tuple[dict, dict]] = {}

    @classmethod
    def setUpClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        for name, small in SHRUNK.items():
            workload = dataclasses.replace(
                WORKLOADS[name], kwargs={**WORKLOADS[name].kwargs, **small}
            )
            plain = measure_call(workload, 0, str(SCRATCH / f"{name}-plain"))
            traced = measure_call(workload, 0, str(SCRATCH / f"{name}-traced"), traced=True)
            cls.records[name] = (plain, traced)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_workload_names_match(self):
        self.assertEqual(names(run.load_spec()["workloads"]), set(WORKLOADS))
        self.assertEqual(set(SHRUNK), set(WORKLOADS))

    def test_every_end_to_end_metric(self):
        wanted = names(run.load_spec()["end_to_end"])
        for name, (plain, _) in self.records.items():
            samples = run.end_to_end([plain], [0.5])
            self.assertEqual(set(samples), wanted, name)
            for metric, values in samples.items():
                self.assertTrue(math.isfinite(values[0]) and values[0] > 0, (name, metric))

    def test_every_per_layer_metric(self):
        wanted = names(run.load_spec()["per_layer"])
        for name, (plain, traced) in self.records.items():
            samples = run.per_layer([plain], [traced])
            self.assertEqual(set(samples), wanted, name)
            for metric, values in samples.items():
                self.assertTrue(math.isfinite(values[0]) and values[0] >= 0, (name, metric))

    def test_layers_are_attributed(self):
        layers = {name: traced["layers"] for name, (_, traced) in self.records.items()}
        self.assertGreater(layers["campaign_a_vec"]["engine.replica_phases"], 0)
        self.assertEqual(layers["campaign_a_vec"]["checkpoint.commits"], 0)
        self.assertEqual(layers["segment_1e5_ckpt"]["checkpoint.commits"], 4)
        self.assertGreater(layers["campaign_b_pool"]["balls.phases"], 0)
        self.assertGreater(layers["campaign_b_pool"]["pool.busy_s"], 0)
        self.assertEqual(layers["campaign_b_pool"]["engine.replica_phases"], 0)
        self.assertEqual(layers["verify_quick"]["verify.certificates"], 9)
        for name, values in layers.items():
            self.assertGreater(values["trace.coverage"], 0.9, name)

    def test_shrunken_outputs_pass_their_checks(self):
        for name in ("segment_1e5_ckpt", "verify_quick"):
            plain, traced = self.records[name]
            self.assertEqual((plain["failed"], traced["failed"]), (0, 0), plain["problems"])


class OutputChecks(unittest.TestCase):
    """A failing output raises the failed fraction above zero."""

    meta = {"n": 64, "m": 64}

    def band(self, times):
        result = {"times": np.array(times), "meta": self.meta}
        return check_recovery_band(result, "", scale=m_ln_m, band=(0.5, 0.8))

    def test_good_fleet_passes(self):
        t = int(0.65 * m_ln_m(self.meta))
        self.assertEqual(self.band([t - 5, t, t + 5]).failed, 0)

    def test_capped_replica_fails(self):
        t = int(0.65 * m_ln_m(self.meta))
        outcome = self.band([t - 5, t, -1, t + 5])
        self.assertEqual((outcome.failed, outcome.units), (1, 4))

    def test_median_outside_band_fails_the_fleet(self):
        outcome = self.band([10, 11, 12])
        self.assertEqual(outcome.failed, outcome.units)

    def test_missing_checkpoint_fails_the_segment(self):
        result = {"times": np.array([200, 201]), "meta": {"m": 1000}, "target_max_load": 800}
        outcome = check_segment(result, str(SCRATCH / "absent"), slack=10)
        self.assertEqual(outcome.failed, outcome.units)

    def test_failed_certificate_counts(self):
        from repro.verify.certificates import Certificate, CertificateSet

        def cert(name, passed):
            return Certificate(name=name, title=name, group="lemma33", passed=passed,
                               checked=1, violations=int(not passed))

        result = CertificateSet([cert("a", True), cert("b", False)])
        outcome = check_certificates(result, "")
        self.assertEqual((outcome.failed, outcome.units), (1, 2))


class Compare(unittest.TestCase):
    def test_differing_fingerprints_and_host_speeds_are_flagged(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        self.addCleanup(shutil.rmtree, SCRATCH, True)
        fp = {**run.fingerprint(), "host_ref_s": 0.1}
        metric = {"median": 1.0, "q1": 1.0, "q3": 1.0, "n": 3, "unit": "s"}
        paths = []
        for k, change in enumerate(({}, {"cpu_model": "another cpu"}, {"host_ref_s": 0.2})):
            path = SCRATCH / f"record-{k}.json"
            path.write_text(json.dumps({
                "workload": "campaign_a_vec",
                "fingerprint": {**fp, **change},
                "metrics": {"wall_s": metric},
            }))
            paths.append(str(path))
        self.assertEqual(run.compare(paths[0], paths[0]), 0)
        self.assertEqual(run.compare(paths[0], paths[1]), 2)
        self.assertEqual(run.compare(paths[0], paths[2]), 2)


if __name__ == "__main__":
    unittest.main()

"""Workload calls in one fresh process; prints one JSON line per call.

    python3 perfbench/call.py --workload NAME --seed N --seconds S --runs DIR [--trace 1] [--spans FILE]
    python3 perfbench/call.py --workload NAME --seed N --runs DIR --setup-only

The process imports ``repro``, prepares a call and stamps the monotonic
clock (``ready``: the parent turns the first stamp into set-up time).
It then repeats the call, giving call k the seed ``1000 * seed + k``,
until *S* seconds have passed and at least three calls ran, and checks
each call's output.  With ``--trace 1`` every call is followed by a
traced call on the same seed: the layer wrappers of ``tracer.py`` are
installed for it alone and its per-layer metrics are added to its line;
``--spans`` writes the raw spans of the last traced call as JSON lines.
``--setup-only`` stops at the first stamp.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
MIN_CALLS = 3


def tree_bytes(path: str, *, skip=lambda rel: False) -> int:
    """Bytes of every file under *path* whose relative path *skip* rejects."""
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            full = os.path.join(dirpath, name)
            if not skip(os.path.relpath(full, path)):
                total += os.path.getsize(full)
    return total


def is_checkpoint(rel: str) -> bool:
    return rel.startswith(("checkpoint", "shards"))


def measure_call(workload, seed: int, out: str, *, traced: bool = False,
                 spans: str | None = None) -> dict:
    """Prepare, stamp ``ready``, run and check one call of *workload*."""
    call = workload.prepare(seed, out)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer().install()
    ready = time.monotonic()
    t0 = time.perf_counter()
    if tracer is None:
        result = call()
    else:
        with tracer.span("workload", "workload"):
            result = call()
    wall_s = time.perf_counter() - t0
    peak_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    outcome = workload.check(result, out)
    record = {
        "ready": ready,
        "wall_s": wall_s,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "artifact_mb": tree_bytes(out) / 1e6,
        "units": outcome.units,
        "failed": outcome.failed,
        "phases": outcome.phases,
        "problems": outcome.problems,
    }
    if tracer is not None:
        from tracer import layer_metrics

        tracer.uninstall()
        layers = layer_metrics(tracer.spans)
        layers["recorder.bytes"] = tree_bytes(out, skip=is_checkpoint)
        record["layers"] = layers
        if spans:
            tracer.write(spans)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--runs", required=True, help="directory for run artifacts")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.prepare(args.seed, args.runs)
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    start = time.monotonic()
    k = 0
    while True:
        seed = 1000 * args.seed + k
        for traced in (False, True) if args.trace else (False,):
            out = os.path.join(args.runs, f"call-{k}-{int(traced)}")
            record = measure_call(workload, seed, out, traced=traced, spans=args.spans)
            shutil.rmtree(out, ignore_errors=True)
            print(json.dumps({**record, "seed": seed, "traced": traced}), flush=True)
        k += 1
        elapsed = time.monotonic() - start
        if k >= MIN_CALLS and elapsed * (k + 1) / k > args.seconds:
            return 0


if __name__ == "__main__":
    sys.exit(main())

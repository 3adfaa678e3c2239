"""The repository benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload campaign_a_vec --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --compare before.json after.json

A run starts one fresh process (``call.py``) that repeats the
workload's call (``workloads.py``) until ``--seconds`` have passed, at
least three times, giving call k the campaign seed ``1000 * seed + k``;
an untraced run then starts a few more fresh processes that only
measure set-up time up to the call.  It prints one line per
metric -- median, quartiles and sample count -- and, as its last line,
one JSON object: ``correct``, ``attempted`` and ``failed`` units, and
the metrics named in ``BENCHMARK.json``.  ``--trace 0`` reports the
end-to-end metrics of untraced calls; ``--trace 1`` alternates untraced
and traced calls on the same seeds and reports the per-layer metrics,
``trace.overhead`` among them.  ``--save FILE`` keeps the whole record,
stamped with an environment fingerprint, and ``--compare`` sets two
saved records side by side, flagging fingerprints that differ and
metrics that got worse by more than their bound.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, HELDOUT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_PROBES = 3
CALL_TIMEOUT_S = 150
#: Fingerprint keys that make two results incomparable when they differ.
ENV_KEYS = ("cpu_model", "nproc", "python", "numpy")
#: Iterations of the fixed loop that gauges the host's speed during a run.
REF_LOOP = 1_000_000
#: Host speeds further apart than this make two results incomparable.
REF_TOLERANCE = 0.1


class CallFailed(RuntimeError):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def fingerprint() -> dict:
    """CPU model, core count, Python and NumPy versions, and the code's identity."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                line.split(":", 1)[1].strip() for line in f if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
    }


def host_ref_s() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed right now.

    A shared host can run the same code at very different speeds from
    one minute to the next; a run records this beside its fingerprint so
    that ``--compare`` can flag two results taken at different speeds.
    """
    t0 = time.perf_counter()
    total = 0
    for k in range(REF_LOOP):
        total += k * k
    return time.perf_counter() - t0


def spawn(args: list[str], timeout: float) -> tuple[float, list[dict]]:
    """Run ``call.py`` in a fresh process group; returns its start time and JSON lines."""
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "call.py"), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise CallFailed(f"call.py {' '.join(args)}: no result within {timeout:.0f} s")
    finally:
        _kill_group(proc.pid)
    if proc.returncode != 0:
        raise CallFailed(f"call.py {' '.join(args)} exited {proc.returncode}:\n{stderr[-2000:]}")
    return start, [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_calls(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list, list]:
    """The run's untraced calls, traced calls and set-up samples.

    The process that makes the calls gives the first set-up sample; an
    untraced run then starts ``SETUP_PROBES`` more fresh processes that
    stop right before the call.
    """
    runs = WORK / "runs" / f"{workload}-{os.getpid()}"
    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--runs", str(runs)]
    try:
        start, records = spawn(
            [*common, "--seconds", str(seconds), "--trace", str(int(trace)),
             "--spans", str(WORK / "spans" / f"{workload}.jsonl")],
            timeout=seconds + CALL_TIMEOUT_S,
        )
        setups = [records[0]["ready"] - start]
        for _ in range(0 if trace else SETUP_PROBES):
            start, (probe,) = spawn([*common, "--setup-only"], timeout=CALL_TIMEOUT_S)
            setups.append(probe["ready"] - start)
    finally:
        shutil.rmtree(runs, ignore_errors=True)
    plain = [r for r in records if not r["traced"]]
    return plain, [r for r in records if r["traced"]], setups


def summary(values: list[float]) -> dict:
    """Median, quartiles and count of one metric's samples."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(plain: list[dict], setups: list[float]) -> dict[str, list[float]]:
    """Per-call samples of every end-to-end metric, and the set-up samples."""
    return {
        "wall_s": [c["wall_s"] for c in plain],
        "setup_s": setups,
        "phases_per_s": [c["phases"] / c["wall_s"] for c in plain],
        "peak_rss_mb": [c["peak_rss_mb"] for c in plain],
        "artifact_mb": [c["artifact_mb"] for c in plain],
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, list[float]]:
    """Per-call samples of every per-layer metric (traced calls)."""
    samples: dict[str, list[float]] = {}
    for call in traced:
        for name, value in call["layers"].items():
            samples.setdefault(name, []).append(value)
    samples["trace.overhead"] = [
        t["wall_s"] / p["wall_s"] for p, t in zip(plain, traced)
    ]
    return samples


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: the full record ``--save`` keeps."""
    spec = load_spec()
    ref = [host_ref_s() for _ in range(3)]
    plain, traced, setups = run_calls(workload, seed, seconds, trace)
    ref += [host_ref_s() for _ in range(3)]
    calls = plain + traced
    attempted = sum(c["units"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    samples = per_layer(plain, traced) if trace else end_to_end(plain, setups)
    metrics = {
        m["name"]: {**summary(samples[m["name"]]), "unit": m["unit"]} for m in wanted
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "fingerprint": {**fingerprint(), "host_ref_s": statistics.median(ref)},
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": sorted({p for c in calls for p in c["problems"]}),
        "metrics": metrics,
        "calls": calls,
        "setups": setups,
    }


def report(record: dict) -> None:
    fp = record["fingerprint"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {int(record['trace'])}")
    print("env " + "  ".join(f"{k}={fp[k]}" for k in (*ENV_KEYS, "git_rev", "host_ref_s")))
    for name, m in record["metrics"].items():
        print(f"  {name:32s} {m['median']:14.6g} {m['unit']:6s} "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}")
    print(f"  {'failed_frac':32s} {record['failed_frac']:14.6g} {'1':6s} "
          f"{record['failed']} of {record['attempted']} units")
    if record["trace"]:
        for traced in (False, True):
            walls = [c["wall_s"] for c in record["calls"] if c["traced"] == traced]
            label = f"wall_s ({'traced' if traced else 'untraced'})"
            print(f"  {label:32s} {statistics.median(walls):14.6g} {'s':6s} n={len(walls)}")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")


def compare(path_a: str, path_b: str) -> int:
    """Print B against A per metric; nonzero when fingerprints differ or a bound is broken."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    status = 0
    for key in ENV_KEYS:
        if a["fingerprint"].get(key) != b["fingerprint"].get(key):
            print(f"FINGERPRINT DIFFERS: {key}: {a['fingerprint'].get(key)!r} "
                  f"vs {b['fingerprint'].get(key)!r}; the two results are not comparable")
            status = 2
    ref_a, ref_b = a["fingerprint"]["host_ref_s"], b["fingerprint"]["host_ref_s"]
    if abs(ref_b / ref_a - 1) > REF_TOLERANCE:
        print(f"HOST SPEED DIFFERS: reference loop {ref_a:.4f} s vs {ref_b:.4f} s; "
              "the host ran at another speed, so times are not comparable")
        status = 2
    if a["workload"] != b["workload"]:
        print(f"WORKLOAD DIFFERS: {a['workload']} vs {b['workload']}")
        status = 2
    print(f"code: {a['fingerprint']['src_sha256'][:12]} -> {b['fingerprint']['src_sha256'][:12]}")
    spec = load_spec()
    for m in spec["end_to_end"] + spec["per_layer"]:
        name = m["name"]
        if name not in a["metrics"] or name not in b["metrics"]:
            continue
        va, vb = a["metrics"][name]["median"], b["metrics"][name]["median"]
        ratio = vb / va if va else float("nan")
        worse = (vb - va) if m["better"] == "lower" else (va - vb)
        verdict = ""
        if "bound" in m and va and worse / va > m["bound"]:
            verdict = f"WORSE beyond bound {m['bound']}"
            status = max(status, 1)
        print(f"  {name:32s} {va:12.6g} -> {vb:12.6g} {m['unit']:6s} x{ratio:.4f} {verdict}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELDOUT_SEED} is held out to confirm a claimed gain)")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write the full record (with fingerprint) here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    try:
        record = measure(args.workload, args.seed, seconds, bool(args.trace))
    except (CallFailed, subprocess.SubprocessError) as exc:
        print(f"benchmark call failed: {exc}", file=sys.stderr)
        return 1
    report(record)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(record, f, indent=1)
    metrics = {
        name: {"value": m["median"], "unit": m["unit"]}
        for name, m in record["metrics"].items()
    }
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark runner: ``python -m repro bench run``, over pytest-benchmark.

:func:`run_benchmarks` runs pytest in-process on the selected
``benchmarks/bench_*.py`` files with ``--benchmark-only
--benchmark-json`` (flag mapping: docs/BENCHMARKING.md).
:class:`BenchPlugin` wraps each ``test_bench_*`` call with a peak-RSS
window from :class:`ResourceSampler`, a ``bench/<id>`` span in the run
dir and progress lines, and records collection or test failures as
``status: "error"``.  :func:`to_bench_records` maps pytest-benchmark's
JSON onto the ``repro.bench/1`` schema, written as
``BENCH_<timestamp>_<gitrev>.json`` next to a ``runs/bench-*/`` run dir
that ``repro obs summarize`` understands.  Diff two artifacts with
``repro obs diff`` (:mod:`repro.obs.compare`).
"""

from __future__ import annotations

import contextlib
import glob
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import traceback
from typing import Sequence

import pytest
from pytest_benchmark.utils import slugify

from repro.obs.recorder import RunRecorder, git_revision
from repro.obs.resources import ResourceSampler

__all__ = [
    "SCHEMA",
    "BenchPlugin",
    "collect_benches",
    "run_benchmarks",
    "summary_stats",
    "to_bench_records",
    "validate_bench_payload",
]

#: Schema tag written into every bench artifact; bump on breaking change.
SCHEMA = "repro.bench/1"

#: Raw per-round samples persisted per bench (stats cover all rounds).
MAX_PERSISTED_SAMPLES = 64


def _quantile(sorted_vals: Sequence[float], q: float) -> float:
    idx = q * (len(sorted_vals) - 1)
    lo = int(idx)
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = idx - lo
    return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac


def summary_stats(samples: Sequence[float]) -> dict[str, float]:
    """mean/min/max/stdev/p50/p90 over per-iteration samples."""
    vals = sorted(float(v) for v in samples)
    if not vals:
        return {"n": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "stdev": 0.0, "p50": 0.0, "p90": 0.0}
    return {
        "n": len(vals),
        "mean": statistics.fmean(vals),
        "min": vals[0],
        "max": vals[-1],
        "stdev": statistics.stdev(vals) if len(vals) > 1 else 0.0,
        "p50": _quantile(vals, 0.50),
        "p90": _quantile(vals, 0.90),
    }


_STAT_KEYS = ("n", "mean", "min", "max", "stdev", "p50", "p90")
_PAYLOAD_SHAPE = {"schema": str, "created_at": str, "git_rev": (str, type(None)),
                  "config": dict, "env": dict, "resources": dict, "benches": list}
_OK_SHAPE = {"wall_s": dict, "cpu_s": dict, "rounds": int, "iterations": int,
             "peak_rss_kb": (int, float)}


def validate_bench_payload(payload: dict) -> None:
    """Raise ``ValueError`` unless *payload* matches the documented schema."""
    problems: list[str] = []

    def check(obj: dict, shape: dict, where: str) -> None:
        for key, types in shape.items():
            if key not in obj:
                problems.append(f"{where}: missing key {key!r}")
            elif not isinstance(obj[key], types):
                problems.append(f"{where}.{key}: expected {types}, got {type(obj[key])}")

    check(payload, _PAYLOAD_SHAPE, "payload")
    if payload.get("schema") != SCHEMA:
        problems.append(f"payload.schema: expected {SCHEMA!r}")
    if isinstance(payload.get("env"), dict):
        check(payload["env"], {"python": str, "platform": str}, "env")
    benches = payload.get("benches")
    for i, b in enumerate(benches if isinstance(benches, list) else []):
        where = f"benches[{i}]"
        check(b, {"id": str, "status": str}, where)
        if b.get("status") not in ("ok", "skipped", "error"):
            problems.append(f"{where}.status: bad value {b.get('status')!r}")
        elif b["status"] == "ok":
            check(b, _OK_SHAPE, where)
            for section in ("wall_s", "cpu_s"):
                if isinstance(b.get(section), dict):
                    check(b[section], dict.fromkeys(_STAT_KEYS, (int, float)),
                          f"{where}.{section}")
    if problems:
        raise ValueError("invalid bench payload:\n  " + "\n  ".join(problems))


def _bench_id(nodeid: str) -> str:
    """``benchmarks/bench_x.py::test_bench_y`` -> ``bench_x::test_bench_y``."""
    path, _, name = nodeid.partition("::")
    stem = os.path.splitext(os.path.basename(path))[0]
    return f"{stem}::{name}" if name else stem


class BenchPlugin:
    """Per-bench bookkeeping around a pytest-benchmark session.

    Keeps only ``test_bench_*`` items (narrowed by the *pattern* id
    substring when given), and fills :attr:`records` with one partial
    ``repro.bench/1`` record per bench id: the peak RSS and CPU/wall
    seconds of the test call, or the ``error``/``skipped`` outcome.
    """

    def __init__(
        self,
        *,
        pattern: str | None = None,
        sampler: ResourceSampler | None = None,
        recorder: RunRecorder | None = None,
        profile_prefix: str | None = None,
        progress: bool = False,
    ):
        from repro.experiments.base import ProgressReporter

        self.pattern = pattern
        self.sampler = sampler
        self.recorder = recorder
        self.profile_prefix = profile_prefix
        self.reporter = ProgressReporter(0, enabled=progress)
        self.records: dict[str, dict] = {}
        self.epoch = time.perf_counter()

    def _record(self, nodeid: str) -> dict:
        path, _, name = nodeid.partition("::")
        bid = _bench_id(nodeid)
        return self.records.setdefault(bid, {
            "id": bid, "file": os.path.basename(path), "name": name or "<module>",
        })

    def pytest_collection_modifyitems(self, config, items):
        keep = [it for it in items if it.name.startswith("test_bench_")
                and (self.pattern is None or self.pattern in _bench_id(it.nodeid))]
        if len(keep) < len(items):
            config.hook.pytest_deselected(items=[it for it in items if it not in keep])
        items[:] = keep
        for it in keep:
            self._record(it.nodeid)["fixtures"] = list(it.fixturenames)
        self.reporter.total = len(keep)

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(self, item):
        rec = self._record(item.nodeid)
        if self.sampler is not None:
            self.sampler.begin_window()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with self.reporter.task(rec["id"]):
                return (yield)
        finally:
            dur = time.perf_counter() - t0
            rec["call_wall_s"], rec["call_cpu_s"] = dur, time.process_time() - c0
            if self.sampler is not None:
                rec["peak_rss_kb"] = self.sampler.end_window()
            if self.recorder is not None:
                self.recorder.emit({
                    "type": "span", "name": f"bench/{rec['id']}", "depth": 0,
                    "parent": None, "t": round(t0 - self.epoch, 9), "dur_s": round(dur, 9),
                })
            prof = f"{self.profile_prefix}-{slugify(item.name)}.prof"
            if self.profile_prefix and os.path.exists(prof):
                # pytest-benchmark names dumps by test name only; rename
                # to the bench id so same-named tests cannot collide.
                rec["pstats"] = rec["id"].replace("::", "__") + ".prof"
                os.replace(prof, os.path.join(os.path.dirname(prof), rec["pstats"]))

    def pytest_exception_interact(self, node, call, report):
        exc = call.excinfo.value
        if report.when == "collect":  # pytest wraps an ImportError in a CollectError
            cause = exc.__cause__ or exc
            error = f"import error: {type(cause).__name__}: {cause}"
        else:
            error = f"{type(exc).__name__}: {exc}"
        rec = self._record(node.nodeid)
        rec.update(status="error", error=error,
                   traceback="".join(traceback.format_exception(exc)))
        self.reporter.emit(f"ERROR {rec['id']}: {rec['error']}")

    def pytest_runtest_logreport(self, report):
        if report.skipped and report.when in ("setup", "call"):
            self._record(report.nodeid).update(
                status="skipped", skip_reason=str(report.longrepr[-1])
            )

    @pytest.hookimpl(tryfirst=True)
    def pytest_benchmark_generate_machine_info(self, config):
        # The artifact carries its own env fingerprint; pytest-benchmark's
        # default probes cpuinfo, which costs over a second per session.
        return {}


def _bench_paths(bench_dir: str, pattern: str | None) -> tuple[list[str], str | None]:
    """Bench files to hand pytest, plus the id filter still to apply.

    *pattern* matches file stems first (so ``--filter primitives``
    imports only ``bench_primitives.py``); when no stem matches it
    falls back to a substring of the ``file::function`` id.
    """
    paths = sorted(glob.glob(os.path.join(bench_dir, "bench_*.py")))
    if not paths:
        raise FileNotFoundError(f"no bench_*.py found under {bench_dir!r}")
    matched = [p for p in paths
               if pattern is not None and pattern in os.path.basename(p)[:-len(".py")]]
    return (matched, None) if matched else (paths, pattern)


def _run_pytest(bench_dir: str, paths: list[str], args: list[str], plugin: BenchPlugin) -> None:
    """One in-process pytest session over *paths*, leaving no trace behind.

    Bench modules are imported by file name (pytest's ``prepend`` mode
    puts the bench dir on ``sys.path`` for their ``from conftest import
    ...``); both are rolled back afterwards, so a later session over
    another dir with same-named modules imports its own files.
    """
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    root = os.path.realpath(bench_dir) + os.sep
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = pytest.main([
                "-q", "-s", "-m", "", "-p", "no:cacheprovider",
                "--continue-on-collection-errors", "--benchmark-only",
                "--benchmark-quiet", *args, *paths,
            ], plugins=[plugin])
    finally:
        sys.path[:] = saved_path
        for name in set(sys.modules) - saved_modules:
            f = getattr(sys.modules[name], "__file__", None)
            if f and os.path.realpath(f).startswith(root):
                del sys.modules[name]
    ran = (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED, pytest.ExitCode.NO_TESTS_COLLECTED)
    if code not in ran and not plugin.records:
        raise RuntimeError(f"pytest exited with {code!r}:\n{out.getvalue()[-2000:]}")


def collect_benches(bench_dir: str = "benchmarks", pattern: str | None = None) -> list[dict]:
    """What ``bench run`` would run: one record per bench or broken module."""
    paths, id_filter = _bench_paths(bench_dir, pattern)
    plugin = BenchPlugin(pattern=id_filter)
    _run_pytest(bench_dir, paths, ["--collect-only"], plugin)
    return [plugin.records[k] for k in sorted(plugin.records)]


def to_bench_records(raw: dict, records: dict[str, dict]) -> list[dict]:
    """One ``repro.bench/1`` bench record per id, from pytest-benchmark's JSON.

    ``wall_s`` is pytest-benchmark's per-iteration round data.  It times
    wall clock only, so ``cpu_s`` scales those samples by the process
    CPU/wall ratio of the whole test call.
    """
    stats_by_id = {_bench_id(b["fullname"]): b["stats"] for b in raw.get("benchmarks", [])}
    out: list[dict] = []
    for bid in sorted(records):
        call = records[bid]
        rec = {k: v for k, v in call.items()
               if k not in ("fixtures", "call_wall_s", "call_cpu_s")}
        stats = stats_by_id.get(bid)
        if "status" not in rec and stats is None:
            rec.update(status="error", error="no timing data: benchmark fixture not used")
        elif "status" not in rec:
            wall = [float(v) for v in stats["data"]]
            util = call["call_cpu_s"] / call["call_wall_s"] if call["call_wall_s"] > 0 else 0.0
            rec.update(
                status="ok",
                rounds=int(stats["rounds"]),
                iterations=int(stats["iterations"]),
                wall_s={**summary_stats(wall),
                        "samples": [round(v, 9) for v in wall[:MAX_PERSISTED_SAMPLES]]},
                cpu_s=summary_stats([v * util for v in wall]),
                peak_rss_kb=rec.get("peak_rss_kb", 0.0),
            )
        out.append(rec)
    return out


def run_benchmarks(
    *,
    bench_dir: str = "benchmarks",
    pattern: str | None = None,
    repeats: int = 5,
    warmup: int = 1,
    quick: bool = False,
    profile: bool = False,
    out_dir: str = ".",
    run_dir: str | None = None,
    progress: bool = True,
) -> tuple[str, dict]:
    """Run the benches under pytest-benchmark; returns ``(json_path, payload)``.

    *repeats* rounds per bench (``--benchmark-min-rounds`` with
    ``--benchmark-max-time=0``), each at least 5 ms long unless *quick*,
    which also drops the *warmup*.  *profile* adds one cProfile pass per
    bench after its timed rounds and drops ``<bench>.prof`` into the
    run dir (the timings are unaffected).
    """
    paths, id_filter = _bench_paths(bench_dir, pattern)
    ts = time.strftime("%Y%m%d-%H%M%S")
    rev = git_revision()
    run_dir = run_dir or os.path.join("runs", f"bench-{ts}")
    warmup = 0 if quick else warmup
    rec = RunRecorder(run_dir, meta={"kind": "bench", "filter": pattern})
    sampler = ResourceSampler(recorder=rec).start()
    plugin = BenchPlugin(
        pattern=id_filter, sampler=sampler, recorder=rec, progress=progress,
        profile_prefix=os.path.join(run_dir, "profile") if profile else None,
    )
    args = [f"--benchmark-min-rounds={max(1, repeats)}", "--benchmark-max-time=0",
            f"--benchmark-min-time={0 if quick else 0.005}"]
    args += (["--benchmark-warmup=on", f"--benchmark-warmup-iterations={warmup}"]
             if warmup > 0 else ["--benchmark-warmup=off"])
    if profile:
        args += ["--benchmark-cprofile=tottime",
                 f"--benchmark-cprofile-dump={plugin.profile_prefix}"]
    raw: dict = {}
    try:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            raw_path = os.path.join(tmp, "pytest-benchmark.json")
            _run_pytest(bench_dir, paths, [f"--benchmark-json={raw_path}", *args], plugin)
            if os.path.exists(raw_path) and os.path.getsize(raw_path):
                with open(raw_path) as f:
                    raw = json.load(f)
    finally:
        sampler.stop()
    records = to_bench_records(raw, plugin.records)

    import numpy

    payload = {
        "schema": SCHEMA,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_rev": rev,
        "config": {
            "bench_dir": bench_dir, "filter": pattern, "repeats": repeats,
            "warmup": warmup, "quick": quick, "profile": profile,
        },
        "env": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "numpy": numpy.__version__,
        },
        "resources": {
            "peak_rss_kb": sampler.peak_rss_kb,
            "cpu_pct_mean": round(sampler.cpu_pct_mean, 3),
            "samples": sampler.samples,
        },
        "run_dir": run_dir,
        "benches": records,
    }
    validate_bench_payload(payload)
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, f"BENCH_{ts}_{(rev or 'unknown')[:10]}.json")
    with open(json_path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    n_err = sum(1 for b in records if b["status"] == "error")
    rec.set_meta(bench_json=json_path, benches=len(records), errors=n_err)
    rec.finish(status="ok" if n_err == 0 else "error")
    return json_path, payload


def render_bench_payload(payload: dict) -> str:
    """One summary table over a bench artifact (the ``bench run`` stdout)."""
    from repro.utils.tables import Table

    t = Table(
        ["bench", "status", "rounds×iters", "wall mean", "p50", "p90", "peak rss"],
        title=f"bench artifact ({payload.get('git_rev') or 'no git rev'})",
    )
    for b in payload.get("benches", []):
        if b.get("status") != "ok":
            t.add_row([b["id"], b["status"], "-", "-", "-", "-", "-"])
            continue
        w = b["wall_s"]
        t.add_row([
            b["id"], "ok", f"{b['rounds']}×{b['iterations']}",
            _fmt_s(w["mean"]), _fmt_s(w["p50"]), _fmt_s(w["p90"]),
            f"{b['peak_rss_kb'] / 1024.0:.1f} MB",
        ])
    return t.render()


def _fmt_s(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.2f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"

#!/usr/bin/env python3
"""varipix benchmark: whole `run` jobs on named workloads, timed or traced.

Run from the root of a checkout:

    python3 bench/run.py --workload fixtures_sweep --seed 42 --seconds 40 --trace 0
    python3 bench/run.py --workload all

One process runs one workload as a closed loop: one job at a time,
the next starting after the previous one wrote psnr.csv, until --seconds of
set-up and measurement are used. `--trace 0` prints the end-to-end metrics of
BENCHMARK.json; `--trace 1` alternates untraced and traced jobs and prints
the per-layer metrics. Gated times are scaled to a reference host speed,
measured by a fixed calibration loop right before and after each job. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

import tracing  # bench/ is on sys.path as the script's directory
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = ROOT / "tests" / "reference.py"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 42
BLOCK = workloads.BLOCK
CAL_ITERATIONS = 900
# Gated times are scaled to the host speed at which the calibration loop's
# Python part and median part take these times; see "Host speed" in
# bench/README.md.
CAL_REF_PYTHON_S = 0.05
CAL_REF_MEDIAN_S = 0.03
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_SNIPPET = "import varipix, varipix.cli; varipix.builtin_masks(); print(varipix.__file__)"
SETUP_PYTHON_SHARE = 1.0  # importing is interpreter work
SETUP_EVERY_S = 2.0  # timed runs probe set-up after the first job that ends this long after the last probe


def log(msg: str) -> None:
    print(msg, flush=True)


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


# ---- environment ----------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    commit = None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:  # not a parent directory's repository
            commit = out[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cache": caches,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "click": importlib.metadata.version("click"),
        "git_commit": commit,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ---- set-up ---------------------------------------------------------------------


def setup_probe() -> float:
    """Wall time of one fresh interpreter that imports varipix and loads the masks."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.strip().startswith(str(SRC)):
        fail(f"set-up interpreter failed or imported varipix from elsewhere: {proc.stdout}{proc.stderr}")
    return elapsed


# The calibration loop times the program's two kinds of work separately,
# with no varipix code, so no change to the program moves it: numpy calls
# on 6x6 arrays from a Python loop, like the fused scan's per-block loop,
# and a median over a stack of windows, like the median filters.
# Python-level work slows most when the host is busy, so each workload
# weighs the two parts by its own share of Python-level work. It takes
# about 70 ms.
_CAL_RNG = numpy.random.default_rng(0)
_CAL_BLOCKS = [_CAL_RNG.uniform(0.0, 255.0, (BLOCK, BLOCK)) for _ in range(64)]
_CAL_REGIONS = [_CAL_RNG.integers(0, 2, (BLOCK, BLOCK)) == 0 for _ in range(8)]
_CAL_STACK = _CAL_RNG.uniform(0.0, 255.0, (49, 100, 100))  # 3.9 MB, past L2 like the filters' stacks


def calibrate() -> tuple[float, float]:
    """Wall times of the calibration loop's Python part and median part, in seconds."""
    start = time.perf_counter()
    total = 0.0
    for i in range(CAL_ITERATIONS):
        block = _CAL_BLOCKS[i % len(_CAL_BLOCKS)]
        for region in _CAL_REGIONS:
            a = block[region]
            total += float(((a - a.mean()) ** 2).sum())
    middle = time.perf_counter()
    for _ in range(2):
        numpy.median(_CAL_STACK, axis=0)
    return middle - start, time.perf_counter() - middle


def load_reference():
    spec = importlib.util.spec_from_file_location("varipix_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # the oracles are read, never written to
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


# ---- the measurement loop ------------------------------------------------------


class Run:
    """The closed loop of jobs on one workload, with every job's checks."""

    def __init__(self, workload, seed, golden, varipix, reference, work):
        self.workload, self.seed = workload, seed
        self.golden = golden if golden.get("seed") == seed else {}  # golden.json holds one seed
        self.varipix, self.reference, self.work = varipix, reference, work
        self.inputs, self.mpix = workloads.make_inputs(workload, seed, work / "inputs")
        self.expected_rows = workloads.expected_rows(workload, len(self.inputs))
        self.origin_rng = numpy.random.default_rng(seed)
        self.origin = None
        self.jobs = []
        self.setup = []  # (set-up probe seconds, calibration just before it)
        self.spans = []
        self.first_sha = None
        self.first_counts = None

    def job(self, traced: bool) -> dict:
        vp = self.varipix
        out_dir = self.work / "job"
        shutil.rmtree(out_dir, ignore_errors=True)
        probe = tracing.JobProbe()
        tracer = tracing.Tracer() if traced else None
        errors = []
        gc.collect()
        with contextlib.ExitStack() as stack:
            if tracer:
                stack.enter_context(tracing.rebound(tracer.bindings(vp.pipeline, vp.cli)))
            stack.enter_context(tracing.rebound(probe.bindings(vp.pipeline)))
            cli_span = tracer.span("cli", "main") if tracer and self.workload.via_cli else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with cli_span:
                    csv, rows = workloads.run_job(self.workload, self.inputs, self.seed, out_dir, vp)
            except Exception:
                csv, rows = None, None
                errors.append(traceback.format_exc())
            run_s = time.perf_counter() - start

        record = {"traced": traced, "run_s": run_s, "image_s": probe.image_s, "images": len(self.inputs)}
        if csv is None:
            record["failed"] = len(self.inputs)
            record["errors"] = errors
            return record
        sha = hashlib.sha256(csv).hexdigest()
        record["psnr_sha256"] = sha
        if self.first_sha is None:
            self.first_sha = sha
        golden = self.golden.get("psnr_sha256")
        if golden is not None and sha != golden:
            errors.append(f"psnr.csv sha256 {sha} != golden {golden}")
        if sha != self.first_sha:
            errors.append(f"psnr.csv sha256 {sha} differs from this run's first job {self.first_sha}")
        if rows != self.expected_rows or csv.count(b"\n") != self.expected_rows + 1:
            errors.append(f"expected {self.expected_rows} rows, got {rows}")
        if self.workload.dumps and probe.scan is not None:
            errors += workloads.check_dumps(self.workload, out_dir, len(self.inputs), probe.first_image, probe.scan)
        shutil.rmtree(out_dir, ignore_errors=True)
        oracle_errors = self.oracle(probe)
        if tracer is not None:
            metrics = tracer.layer_metrics(run_s)
            counts = {k: metrics[k] for k in tracing.COUNTS}
            if self.first_counts is None:
                self.first_counts = counts
            golden_counts = self.golden.get("counts")
            if counts != self.first_counts:
                errors.append(f"computed counts {counts} differ from the first traced job {self.first_counts}")
            if golden_counts is not None and counts != golden_counts:
                errors.append(f"computed counts {counts} != golden {golden_counts}")
            if metrics["pipeline.self_s"] < 0:
                errors.append(f"negative pipeline self time {metrics['pipeline.self_s']}")
            record["layers"] = metrics
            self.spans.extend(tracer.records(len(self.jobs)))
        record["failed"] = len(self.inputs) if errors else min(len(oracle_errors), 1)
        record["errors"] = errors + oracle_errors
        return record

    def oracle(self, probe) -> list[str]:
        if probe.scan is None or probe.adaptive is None:
            return ["oracle inputs were not captured from the first image"]
        if self.origin is None:
            self.origin = workloads.crop_origin(self.origin_rng, probe.adaptive[0]["img"].shape)
        return workloads.check_scan(self.reference, probe.scan, self.origin) + workloads.check_adaptive(
            self.reference, probe.adaptive, self.origin
        )

    def measure(self, deadline: float, trace: bool) -> None:
        """Run jobs until the next one would end after the deadline.

        The calibration loop runs once before the first job and once after
        every job; a job is scaled by the runs on either side of it. In
        timed runs a set-up probe follows the calibration after a job every
        SETUP_EVERY_S seconds and is scaled by it, so the set-up samples
        are spread over the run like the jobs.
        """
        start = time.perf_counter()
        if not trace:
            setup_probe()  # fills the bytecode cache; not counted
        calibrate()  # the first run after start-up is slow; not counted
        cal = calibrate()
        last_probe = -SETUP_EVERY_S
        while True:
            record = self.job(traced=trace and len(self.jobs) % 2 == 1)
            after = calibrate()
            record["cal_s"] = (cal, after)
            self.jobs.append(record)
            cal = after
            if not trace and time.perf_counter() - last_probe >= SETUP_EVERY_S:
                last_probe = time.perf_counter()
                self.setup.append((setup_probe(), after))
            for err in record["errors"]:
                print(f"job {len(self.jobs) - 1}: {err}", file=sys.stderr)
            now = time.perf_counter()
            enough = len(self.jobs) >= (2 if trace else 1)
            if enough and now + (now - start) / len(self.jobs) > deadline:
                break


# ---- reporting -----------------------------------------------------------------


def slowdown(cals, python_share: float) -> float:
    """How much slower than the reference the host ran a piece of work of
    which python_share is Python-level, by the calibrations around it."""
    python_s = statistics.fmean(c[0] for c in cals) / CAL_REF_PYTHON_S
    median_s = statistics.fmean(c[1] for c in cals) / CAL_REF_MEDIAN_S
    return python_share * python_s + (1.0 - python_share) * median_s


def job_time(jobs, python_share: float) -> float:
    """The mean job time at the reference host speed: the jobs' total wall
    time over their total slowdown. A burst of load shorter than a job
    slows the job but seldom the calibrations on either side of it, so
    per-job ratios would miss it; over a run, the calibrations catch such
    bursts as often as the jobs do."""
    return sum(j["run_s"] for j in jobs) / sum(slowdown(j["cal_s"], python_share) for j in jobs)


def end_to_end(run: Run) -> tuple[dict, dict]:
    """The gated job time is the mean job time at the reference host speed.
    Quartiles of per-job times at that speed, and of the wall times, are in
    `detail`."""
    ok = [j for j in run.jobs if "psnr_sha256" in j]
    share = run.workload.python_share
    run_s = [j["run_s"] / slowdown(j["cal_s"], share) for j in ok] or [0.0]
    wall = [j["run_s"] for j in ok] or [0.0]
    setup_s = sum(probe for probe, _ in run.setup) / sum(slowdown([cal], SETUP_PYTHON_SHARE) for _, cal in run.setup)
    images = sorted(t for j in ok for t in j["image_s"]) or [0.0]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    mean = job_time(ok, share) if ok else 0.0
    values = {
        "run_s": mean,
        "mpix_per_s": run.mpix / mean if mean else 0.0,
        "peak_rss_mb": peak_kb * 1024 / 1e6,
        "setup_s": setup_s,
    }
    # highest percentile with at least ten samples beyond it
    tail_n = len(images) - 10
    detail = {
        "jobs": len(run.jobs),
        "run_s_quartiles": quartiles(run_s),
        "run_s_wall_quartiles": quartiles(wall),
        "cal_python_s_median": statistics.median(c[0] for j in run.jobs for c in j["cal_s"]),
        "cal_median_s_median": statistics.median(c[1] for j in run.jobs for c in j["cal_s"]),
        "image_samples": len(images),
        "image_s_wall_p50": statistics.median(images),
        "image_s_wall_tail": (
            {"percentile": round(100 * tail_n / len(images), 1), "value": images[tail_n - 1]} if tail_n >= 1 else None
        ),
        "setup_s_wall_median": statistics.median(s[0] for s in run.setup),
        "fail_frac": sum(j["failed"] for j in run.jobs) / sum(j["images"] for j in run.jobs),
    }
    return values, detail


def per_layer(run: Run) -> tuple[dict, dict]:
    traced = [j for j in run.jobs if j.get("layers")]
    share = run.workload.python_share
    untraced = [j for j in run.jobs if not j["traced"] and "psnr_sha256" in j]
    if not traced:
        return {}, {"traced_jobs": 0}
    # the traced job with the median wall time, so its layers sum to its run_s
    chosen = sorted(traced, key=lambda j: j["run_s"])[(len(traced) - 1) // 2]
    values = dict(chosen["layers"])
    values["trace.run_s"] = chosen["run_s"]
    # at the reference host speed, so that the host's swings between jobs cancel
    values["trace.overhead_s"] = job_time(traced, share) - (job_time(untraced, share) if untraced else 0.0)
    self_sum = sum(chosen["layers"][k] for k in tracing.SELF_TIMES)
    detail = {
        "traced_jobs": len(traced),
        "untraced_jobs": len(untraced),
        "layer_self_sum_s": self_sum,
        "counts_label": "computed from array and file sizes",
    }
    return values, detail


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()  # --seconds covers set-up probes, inputs and jobs

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "varipix" / "__init__.py").is_file() or not REFERENCE.is_file():
        fail(f"no varipix sources under {SRC} or no oracles at {REFERENCE}; run from a full checkout")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        run_all(names, args)
        return
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names} or all")

    sys.path.insert(0, str(SRC))
    import varipix
    import varipix.cli
    import varipix.pipeline

    if not Path(varipix.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported varipix from {varipix.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[args.workload]
    golden = json.loads((HERE / "golden.json").read_text()).get(args.workload, {})
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    env = environment()
    log("env " + json.dumps(env, sort_keys=True))
    run = Run(workload, args.seed, golden, varipix, load_reference(), work)
    run.measure(started + args.seconds, bool(args.trace))

    if args.trace:
        values, detail = per_layer(run)
        wanted = spec["per_layer"]
    else:
        values, detail = end_to_end(run)
        wanted = spec["end_to_end"]
    attempted = sum(j["images"] for j in run.jobs)
    failed = sum(j["failed"] for j in run.jobs)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not failed:
        fail(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    shas = sorted({j["psnr_sha256"] for j in run.jobs if "psnr_sha256" in j})
    detail.update({"psnr_sha256": shas, "seed": args.seed, "workload": args.workload})
    if args.trace and run.first_counts is not None:
        detail["counts"] = run.first_counts
    (work / "result.json").write_text(
        json.dumps(
            {"env": env, "detail": detail, "metrics": metrics, "jobs": run.jobs, "setup": run.setup},
            indent=1,
            default=str,
        )
    )
    if run.spans:
        (work / "spans.json").write_text(json.dumps(run.spans))
    log("detail " + json.dumps(detail, sort_keys=True, default=str))
    for name, m in metrics.items():
        log(f"{args.workload:15s} {name:32s} {m['value']:14.6f} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


def run_all(names, args) -> None:
    """Run every workload in its own process, one after another."""
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))


if __name__ == "__main__":
    main()

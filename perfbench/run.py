"""ampenv's benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload file_long --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; ampenv is imported from ``src/``.
Set-up writes the workload's inputs and oracle outputs, generated from the
seed, under ``perfbench/_work/``, and times ``setup_s`` in fresh
interpreters. A fresh worker process then runs the jobs (see worker.py).
Untraced runs report the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics and writes its spans under ``perfbench/_out/``. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. Workloads, tolerances and predictions are in plan.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PLAN = json.loads((HERE / "plan.json").read_text())
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKER_TIMEOUT_S = 150
SETUP_REPEATS = 4  # before the jobs, and again after them
SETUP_CODE = (
    "import numpy as np, ampenv; "
    "ampenv.three_step_envelope(ampenv.Signal(np.sin(np.arange(4410) * 0.3), 44100.0))"
)


def worker_env() -> dict:
    """Environment for every child: ampenv from this checkout, BLAS on one thread."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(PLAN["blas_threads"])
    return env


def measure_setup_s(env) -> list[tuple[float, float]]:
    """(wall s, calibration ms) of fresh interpreters doing import + a first envelope."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # No timeout: with one, subprocess polls the child at up to 50 ms steps.
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True)
        times.append((time.perf_counter() - t0, clock.calibrate_ms()))
    return times


def tail(times_ms):
    """The highest percentile with at least 10 jobs beyond it, at most p99.

    Returns (value, percentile, jobs beyond). Below 20 jobs that percentile
    would be under the median, so the slowest job is reported as percentile
    100. The p99 cap keeps the thousands of stream jobs from reporting
    one-off scheduler stalls of a shared machine instead of the largest
    chunks.
    """
    ordered = sorted(times_ms)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, 0
    k = min(n - 10, (99 * n) // 100)
    return ordered[k - 1], 100.0 * k / n, n - k


def run_worker(proc, manifest, work: Path) -> dict:
    mpath = work / "manifest.json"
    rpath = work / "result.json"
    mpath.write_text(json.dumps(manifest))
    proc.communicate(("%s\n%s\n" % (mpath, rpath)).encode(), timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    return json.loads(rpath.read_text())


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = worker_env()
    # Start the worker while this process is still small: Linux carries a
    # process's peak RSS across fork and exec into the child's ru_maxrss.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")], env=env,
        stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
    )
    work = HERE / "_work" / ("%s-%d-%d" % (workload, seed, os.getpid()))
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    try:
        import numpy as np

        import inputs

        manifest = inputs.prepare(workload, seed, work)
        manifest.update(
            trace=trace, seconds=seconds, tolerances=PLAN["tolerances"],
            spans=str(out_dir / ("%s-s%d-spans.json" % (workload, seed))),
        )
        setup_times = measure_setup_s(env)
        res = run_worker(proc, manifest, work)
        setup_times += measure_setup_s(env)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    times = res["times_ms"]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "backend": res["backend"], "blas_threads": PLAN["blas_threads"],
        "jobs": len(times),
        "failed_frac": res["failed"] / res["attempted"], "errors": res["errors"],
        "setup_s_runs": setup_times,
    }
    if trace:
        metrics = {m["name"]: res["per_layer"][m["name"]] for m in BENCH["per_layer"]}
        units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        record["per_layer_detail"] = res["per_layer_detail"]
        record["digest_mismatches"] = res["digest_mismatches"]
        record["overhead_frac_measured"] = res["overhead_frac_measured"]
    else:
        # Job times at the reference speed: each job's wall time scaled by
        # the reference over the calibration loop timed around it.
        cal = res["calibration_ms"]
        scaled = [t * PLAN["calibration_ref_ms"] / c for t, c in zip(times, cal)]
        value, pct, beyond = tail(scaled)
        record.update(
            tail_percentile=pct, tail_jobs_beyond=beyond,
            calibration_ms_p50=statistics.median(cal),
            wall={"audio_s_per_s": res["audio_s"] / (sum(times) / 1e3),
                  "job_ms_p50": statistics.median(times), "job_ms_tail": tail(times)[0],
                  "setup_s": statistics.median(t for t, _ in setup_times)},
        )
        metrics = {
            "audio_s_per_s": res["audio_s"] / (sum(scaled) / 1e3),
            "job_ms_p50": statistics.median(scaled),
            "job_ms_tail": value,
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(t * PLAN["calibration_ref_ms"] / c for t, c in setup_times),
        }
        units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    (out_dir / ("%s-s%d-t%d.json" % (workload, seed, trace))).write_text(
        json.dumps(dict(record, metrics=metrics), indent=1)
    )
    return {
        "record": record,
        "result": {
            "correct": res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def main(argv=None) -> int:
    names = [w["name"] for w in BENCH["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ampenv" / "__init__.py").is_file():
        print("perfbench: no ampenv sources at %s; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    if args.workload == "all":
        # One small parent per workload, so that each worker starts fresh.
        for name in names:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            subprocess.run(cmd, check=True)
        return 0

    out = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print("record " + json.dumps(out["record"]))
    for metric, m in out["result"]["metrics"].items():
        print("%-14s %-42s %14.6g %s" % (args.workload, metric, m["value"], m["unit"]))
    print("%-14s %-42s %14.6g %s" % (args.workload, "failed_frac", out["record"]["failed_frac"], "fraction"))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The measured process: runs one workload's jobs in a closed loop.

Usage: python3 perfbench/worker.py, then write the manifest path and the
result path, one per line, to its standard input.

It is started fresh for each run, so its peak RSS belongs to that workload
alone. One client, one thread: the next job starts only when the previous
one has returned and its output has been checked; checks are outside the
timing. Untraced, it runs jobs until their summed time reaches the run
length. Traced, it first runs the first jobs untraced to record output
digests and times, then installs the tracer and runs whole cycles until the
traced job time reaches the run length; each traced output must be
bit-identical to the untraced one of the same job.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import clock  # noqa: E402
import tracing  # noqa: E402

import ampenv  # noqa: E402

RSS_AFTER_IMPORT_MB = clock.maxrss_mb()
CALIBRATE_EVERY_S = 0.25

import jobs  # noqa: E402


class Loop:
    def __init__(self, workload):
        self.workload = workload
        self.times_ms = []
        self.total_ms = 0.0
        self.audio_s = 0.0
        self.failed = 0
        self.errors = []

    def run(self, i, call):
        """Run job i of the cycle, check it, and return (ms, output or None, job)."""
        job = self.workload.jobs[i % len(self.workload.jobs)]
        if i % len(self.workload.jobs) == 0:
            self.workload.start_cycle()
        error = out = None
        t0 = time.perf_counter()
        try:
            out = call("job", job.run, call)
        except Exception as exc:  # a job that raises is a failed job
            error = "raised %r" % (exc,)
        ms = (time.perf_counter() - t0) * 1e3
        if error is None:
            error = job.check(out)
        self.times_ms.append(ms)
        self.total_ms += ms
        if error is None:
            self.audio_s += job.audio_s
        else:
            self.failed += 1
            out = None
            if len(self.errors) < 5:
                self.errors.append("job %d: %s" % (i, error))
        return ms, out, job


def run_untraced(workload, seconds):
    """Run jobs until their summed time reaches the run length.

    Before the first job, between jobs every CALIBRATE_EVERY_S of wall time
    and after the last job, outside the job timing, the calibration loop is
    timed. Each job is paired with the mean of the calibrations just before
    and just after it.
    """
    loop = Loop(workload)
    calibration = [clock.calibrate_ms()]
    cal_of_job = []
    last = time.perf_counter()
    i = 0
    while loop.total_ms < seconds * 1e3 or i == 0:
        loop.run(i, jobs.plain_call)
        cal_of_job.append(len(calibration))
        if time.perf_counter() - last >= CALIBRATE_EVERY_S:
            calibration.append(clock.calibrate_ms())
            last = time.perf_counter()
        i += 1
    calibration.append(clock.calibrate_ms())
    job_cal = [(calibration[c - 1] + calibration[c]) / 2 for c in cal_of_job]
    return loop, {"calibration_ms": job_cal}


def run_traced(workload, seconds, spans_path):
    n = len(workload.jobs)
    ref = Loop(workload)
    digests, ref_ms = [], []
    cal_ref = clock.calibrate_ms()
    t_start = time.perf_counter()
    while len(digests) < n and (len(digests) < min(2, n) or time.perf_counter() - t_start < seconds / 5):
        ms, out, job = ref.run(len(digests), jobs.plain_call)
        digests.append(None if out is None else job.digest(out))
        ref_ms.append(ms)
    cal_ref = (cal_ref + clock.calibrate_ms()) / 2

    tracer = tracing.Tracer()
    loop = Loop(workload)
    mismatched = 0
    tracer.install()
    try:
        cal_traced = clock.calibrate_ms()
        i = 0
        while i % n or loop.total_ms < seconds * 1e3 or i == 0:
            tracer.job = i
            ms, out, job = loop.run(i, tracer.call)
            if i + 1 == len(digests):
                cal_traced = (cal_traced + clock.calibrate_ms()) / 2
            if i < len(digests) and out is not None and job.digest(out) != digests[i]:
                mismatched += 1
                loop.failed += 1
                loop.errors.append("job %d: traced output differs from untraced" % i)
            i += 1
    finally:
        tracer.uninstall()
    tracer.write(spans_path)

    layers, detail = tracer.layer_metrics(len(loop.times_ms))
    k = len(ref_ms)
    # The time the spans add, as a share of the traced job time: spans
    # recorded times the measured cost of one. Comparing the traced and
    # untraced passes directly gives the same figure plus the machine's
    # drift, which reaches 20% on a shared 2-core virtual machine; that
    # calibrated comparison is kept in the record.
    layers["trace.overhead_frac"] = len(tracer.spans) * tracer.span_cost_ns() / (loop.total_ms * 1e6)
    measured = (sum(loop.times_ms[:k]) / cal_traced) / (sum(ref_ms) / cal_ref) - 1.0
    layers["process.rss_after_import_mb"] = RSS_AFTER_IMPORT_MB
    layers["process.rss_after_read_mb"] = tracer.rss.get("process.rss_after_read_mb", 0.0)
    layers["process.rss_after_envelope_mb"] = tracer.rss.get("process.rss_after_envelope_mb", 0.0)
    loop.failed += ref.failed
    loop.errors += ref.errors
    extra = {
        "per_layer": layers,
        "per_layer_detail": detail,
        "reference_jobs": k,
        "reference_failed": ref.failed,
        "digest_mismatches": mismatched,
        "overhead_frac_measured": measured,
    }
    return loop, extra


def main():
    manifest_path, result_path = sys.stdin.read().split()
    manifest = json.loads(Path(manifest_path).read_text())
    workload = jobs.build(manifest, manifest["tolerances"])
    if manifest["trace"]:
        loop, extra = run_traced(workload, manifest["seconds"], manifest["spans"])
        attempted = len(loop.times_ms) + extra["reference_jobs"]
    else:
        loop, extra = run_untraced(workload, manifest["seconds"])
        attempted = len(loop.times_ms)
    backend = getattr(ampenv.kernels, "active_backend", lambda: "numpy")()
    result = {
        "attempted": attempted,
        "failed": loop.failed,
        "errors": loop.errors,
        "times_ms": loop.times_ms,
        "audio_s": loop.audio_s,
        "peak_rss_mb": clock.maxrss_mb(),
        "backend": backend,
        **extra,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

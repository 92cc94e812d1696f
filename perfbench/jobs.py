"""Jobs and their output checks, built from a manifest inside the worker.

A workload is a cycle of jobs; the worker runs the cycle over and over.
``run(call)`` does one job through ampenv's public entry points, looked up
through their module attributes at call time so that tracing sees them;
``call(name, fn, *args)`` is either a plain call or a traced span.
``check(output)`` compares the job's output with the oracle output that
set-up wrote, and returns None or a one-line reason. Checks read files in
blocks so that they add little to the worker's peak memory.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
import wave

import numpy as np

import ampenv.bench
import ampenv.cli
import ampenv.filtering
from ampenv import BunchSpec, FilterSpec, Signal, SyntheticSpec, butterworth_lowpass

BLOCK = 1 << 16


def plain_call(name, fn, *args):
    return fn(*args)


class CliJob:
    """``ampenv <argv>`` run in-process; its output is the file it writes."""

    def __init__(self, spec, tol):
        self.argv = spec["argv"]
        self.out = spec["out"]
        self.expect = spec["expect"]
        self.n = spec["n"]
        self.audio_s = spec["audio_s"]
        self.scale = spec.get("scale", 1.0)
        self.tol = tol

    def run(self, call):
        return ampenv.cli.main(self.argv)

    def digest(self, code):
        with open(self.out, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest() + ":%r" % (code,)


class WavJob(CliJob):
    def check(self, code):
        if code != 0:
            return "exit code %r" % (code,)
        with wave.open(self.out, "rb") as w:
            shape = (w.getnchannels(), w.getsampwidth(), w.getframerate(), w.getnframes())
            if shape != (1, 2, 44100, self.n):
                return "wav shape (channels, width, rate, frames) = %r" % (shape,)
            with open(self.expect, "rb") as ref:
                while True:
                    got = np.frombuffer(w.readframes(BLOCK), dtype="<i2").astype(np.int32)
                    want = np.fromfile(ref, dtype="<i2", count=BLOCK).astype(np.int32)
                    if len(got) != len(want):
                        return "wav data length differs from expected"
                    if not len(got):
                        return None
                    err = int(np.max(np.abs(got - want)))
                    if err > self.tol["wav_pcm16_lsb"]:
                        return "wav sample off by %d LSB" % err


class CsvJob(CliJob):
    HEADER = "time_s,signal,abs,staircase,envelope"

    def check(self, code):
        if code != 0:
            return "exit code %r" % (code,)
        rel = self.tol["csv_rel"]
        env_abs = self.tol["envelope_rel"] * self.scale
        rows = 0
        with open(self.out) as f, open(self.expect, "rb") as ref:
            if f.readline().strip() != self.HEADER:
                return "csv header differs"
            while True:
                lines = list(itertools.islice(f, BLOCK))
                want = np.fromfile(ref, dtype="<f8", count=5 * BLOCK).reshape(-1, 5)
                if len(lines) != len(want):
                    return "csv has %d rows, expected %d" % (rows + len(lines), self.n)
                if not lines:
                    return None
                got = np.loadtxt(lines, delimiter=",", ndmin=2)
                allowed = rel * np.abs(want)
                allowed[:, 4] += env_abs
                if got.shape != want.shape or np.any(np.abs(got - want) > allowed):
                    return "csv values differ from oracle near row %d" % rows
                rows += len(lines)


class StreamJobs:
    """One stream over seeded audio; a job is the next chunk out of it."""

    def __init__(self, m, tol):
        audio = np.fromfile(m["audio"], dtype="<f8")
        self.expect = np.fromfile(m["expect"], dtype="<f8")
        self.rate = m["rate"]
        self.design = butterworth_lowpass(FilterSpec(m["cutoff_hz"], self.rate, 4))
        self.spec = BunchSpec(m["bunch"])
        bounds = np.cumsum([0] + m["lengths"])
        self.chunks = [Signal(audio[a:b], self.rate) for a, b in zip(bounds[:-1], bounds[1:])]
        self.bounds = bounds
        self.abs_tol = tol["envelope_rel"] * m["scale"]
        self.jobs = [StreamChunk(self, i) for i in range(len(self.chunks))]
        self.stream = None

    def start_cycle(self):
        self.stream = ampenv.filtering.chunked_envelope_stream(self.design, self.spec, iter(self.chunks))


class StreamChunk:
    def __init__(self, owner, i):
        self.owner = owner
        self.i = i
        self.audio_s = len(owner.chunks[i]) / owner.rate

    def run(self, call):
        return call("filtering.chunked_envelope_stream", next, self.owner.stream)

    def check(self, out):
        o = self.owner
        want = o.expect[o.bounds[self.i] : o.bounds[self.i + 1]]
        if len(out) != len(want) or out.sample_rate != o.rate:
            return "chunk %d: length or rate changed" % self.i
        if np.max(np.abs(out.samples - want)) > o.abs_tol:
            return "chunk %d differs from offline causal output" % self.i
        return None

    def digest(self, out):
        return hashlib.sha256(out.samples.tobytes()).hexdigest()


class CompareJob:
    """``generate`` then ``compare_methods`` on a ground-truth signal."""

    def __init__(self, spec, tol):
        self.spec = dict(spec["spec"], carrier_hz=tuple(spec["spec"]["carrier_hz"]))
        self.configs = [tuple(c) for c in spec["configs"]]
        self.expect = spec["expect"]
        self.audio_s = spec["audio_s"]
        self.tol = tol["report_abs"]

    def run(self, call):
        sig, truth = ampenv.bench.generate(SyntheticSpec(**self.spec))
        return ampenv.bench.compare_methods(sig, truth, self.configs)

    def check(self, report):
        if report.reference != "ground_truth":
            return "report reference %r" % report.reference
        if [r.method for r in report.rows] != list(self.expect):
            return "report methods %r" % [r.method for r in report.rows]
        for r in report.rows:
            got = (r.rmse_rel, r.peak_ratio, r.mean_ratio)
            if any(abs(g - w) > self.tol for g, w in zip(got, self.expect[r.method])):
                return "%s metrics %r, oracle %r" % (r.method, got, self.expect[r.method])
            if not (math.isfinite(r.runtime_ms) and r.runtime_ms > 0):
                return "%s runtime %r" % (r.method, r.runtime_ms)
        return None

    def digest(self, report):
        values = [v for r in report.rows for v in (r.rmse_rel, r.peak_ratio, r.mean_ratio)]
        return hashlib.sha256(struct.pack("<%dd" % len(values), *values)).hexdigest()


class Workload:
    def __init__(self, jobs, start_cycle=None):
        self.jobs = jobs
        self.start_cycle = start_cycle or (lambda: None)


def build(manifest, tol) -> Workload:
    kind = manifest["kind"]
    if kind == "wav":
        return Workload([WavJob(j, tol) for j in manifest["jobs"]])
    if kind == "csv":
        return Workload([CsvJob(j, tol) for j in manifest["jobs"]])
    if kind == "compare":
        return Workload([CompareJob(j, tol) for j in manifest["jobs"]])
    stream = StreamJobs(manifest, tol)
    return Workload(stream.jobs, stream.start_cycle)

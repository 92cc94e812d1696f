"""Outside-in tracing of ampenv: spans around calls into its public functions.

Each traced function is replaced, at every ``ampenv`` module attribute bound
to it (the names its callers look it up through at call time), by a wrapper
that records a span: name, start, end, parent span and job id. Nothing in
the package changes and ``uninstall`` restores every attribute. Spans are
kept in memory and turned into per-layer metrics, and written out, at the
end of the run.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict

import clock

# Layers, as "<module>.<function>" under the ampenv package. The benchmark
# calls cli.main, bench.generate and bench.compare_methods through their
# module attributes, so those entry points are traced the same way.
TARGETS = (
    "kernels.sos_filter",
    "signals.rectify",
    "signals.bunch_max",
    "filtering.filter_causal",
    "filtering.filtfilt_zero_phase",
    "filter_design.butterworth_lowpass",
    "audio_io.read_wav",
    "audio_io.to_mono",
    "audio_io.write_wav",
    "audio_io.write_csv",
    "envelopes.three_step_stages",
    "envelopes.three_step_envelope",
    "envelopes.envelope_follower",
    "envelopes.envelope_rms",
    "envelopes.envelope_hilbert",
    "cli.main",
    "bench.generate",
    "bench.compare_methods",
)
STREAM = "filtering.chunked_envelope_stream"  # spans around next() on the stream
METHODS = (  # what compare_methods calls
    "envelopes.three_step_envelope",
    "envelopes.envelope_follower",
    "envelopes.envelope_rms",
    "envelopes.envelope_hilbert",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, job id]
        self.stack = []
        self.job = -1
        self.counts = defaultdict(float)
        self.rss = {}
        self._patched = []
        self._after = {
            "kernels.sos_filter": self._after_sos_filter,
            "audio_io.read_wav": self._after_read_wav,
            "audio_io.write_csv": self._after_write_csv,
            "envelopes.three_step_stages": self._after_three_step_stages,
        }

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1, self.job]
        self.spans.append(rec)
        self.stack.append(idx)
        rec[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter_ns()
            self.stack.pop()

    def _wrap(self, name, fn):
        after = self._after.get(name)

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items()) if k == "ampenv" or k.startswith("ampenv.")]
        for name in TARGETS:
            module, attr = name.rsplit(".", 1)
            fn = getattr(importlib.import_module("ampenv." + module), attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, fn))

    def uninstall(self):
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    # Counters and memory checkpoints, taken after the traced call returns.
    def _after_sos_filter(self, args):
        sos, x = args[0], args[1]
        self.counts["kernels.sos_filter.sample_sections"] += len(x) * len(sos)

    def _after_read_wav(self, args):
        self.counts["audio_io.read_wav.mb"] += os.path.getsize(args[0]) / 1e6
        self.rss.setdefault("process.rss_after_read_mb", clock.maxrss_mb())

    def _after_write_csv(self, args):
        self.counts["audio_io.write_csv.mb"] += os.path.getsize(args[0]) / 1e6

    def _after_three_step_stages(self, args):
        self.rss.setdefault("process.rss_after_envelope_mb", clock.maxrss_mb())

    def span_cost_ns(self, calls: int = 20000) -> float:
        """Time one traced call of a no-op adds over a direct call of it."""
        probe = Tracer()

        def noop():
            return None

        traced = probe._wrap("probe", noop)
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter_ns()
        return ((t2 - t1) - (t1 - t0)) / calls

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "job"], "spans": self.spans}, f)

    def layer_metrics(self, n_jobs: int) -> tuple[dict, dict]:
        """Per-layer metrics, and every layer's per-job self time and calls.

        Self time is a span's duration minus the time its child spans cover.
        Shares are self time over the summed time of the root "job" spans.
        A kernel pass is backward when it is the second pass made inside one
        zero-phase filtering call; every other pass runs forward.
        """
        child = [0] * len(self.spans)
        self_ns = defaultdict(int)
        total_ns = defaultdict(int)
        calls = defaultdict(int)
        passes = defaultdict(int)
        fwd = bwd = 0
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            own = t1 - t0 - child[i]
            self_ns[name] += own
            total_ns[name] += t1 - t0
            calls[name] += 1
            if name == "kernels.sos_filter":
                backward = parent >= 0 and self.spans[parent][0] == "filtering.filtfilt_zero_phase" and passes[parent] == 1
                passes[parent] += 1
                if backward:
                    bwd += own
                else:
                    fwd += own
        job_ns = total_ns["job"] or 1
        per_job = 1e-6 / n_jobs
        sections = self.counts["kernels.sos_filter.sample_sections"]
        m = {
            "trace.job_ms": total_ns["job"] * per_job,
            "trace.uncovered_frac": self_ns["job"] / job_ns,
            "kernels.sos_filter.self_ms": self_ns["kernels.sos_filter"] * per_job,
            "kernels.sos_filter.fwd_ms": fwd * per_job,
            "kernels.sos_filter.bwd_frac": bwd / job_ns,
            "kernels.sos_filter.ns_per_sample_section": self_ns["kernels.sos_filter"] / sections if sections else 0.0,
            "kernels.sos_filter.calls": calls["kernels.sos_filter"] / n_jobs,
            "kernels.sos_filter.sample_sections": sections / n_jobs,
            "signals.rectify.self_ms": self_ns["signals.rectify"] * per_job,
            "signals.bunch_max.self_ms": self_ns["signals.bunch_max"] * per_job,
            "filtering.filter_causal.calls": calls["filtering.filter_causal"] / n_jobs,
            "filter_design.butterworth_lowpass.calls": calls["filter_design.butterworth_lowpass"] / n_jobs,
            "bench.compare_methods.method_calls": sum(calls[m] for m in METHODS) / n_jobs,
            "audio_io.read_wav.mb": self.counts["audio_io.read_wav.mb"] / n_jobs,
            "audio_io.write_csv.mb": self.counts["audio_io.write_csv.mb"] / n_jobs,
            "envelopes.three_step_stages.frac": total_ns["envelopes.three_step_stages"] / job_ns,
        }
        for name in TARGETS + (STREAM,):
            if name != "envelopes.three_step_stages":
                m[name + ".self_frac"] = self_ns[name] / job_ns
        # Every layer's absolute per-job self time, for the run record.
        detail = {name + ".self_ms": self_ns[name] * per_job for name in TARGETS + (STREAM,)}
        detail["envelopes.three_step_stages.ms"] = total_ns["envelopes.three_step_stages"] * per_job
        detail["kernels.sos_filter.bwd_ms"] = bwd * per_job
        detail.update({name + ".calls": calls[name] / n_jobs for name in TARGETS + (STREAM,)})
        return m, detail

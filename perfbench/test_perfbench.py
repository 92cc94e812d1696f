"""Tests of the benchmark itself: python -m pytest perfbench

They use shortened inputs (``quick``) and run the worker's loops in-process.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ampenv.kernels  # noqa: E402
import inputs  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PLAN = json.loads((HERE / "plan.json").read_text())
TOL = PLAN["tolerances"]
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def prepared(workload, seed, path):
    return jobs.build(inputs.prepare(workload, seed, path, quick=True), TOL)


def tree_digest(path: Path, manifest) -> str:
    h = hashlib.sha256(json.dumps(manifest, sort_keys=True).replace(str(path), "").encode())
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + f.read_bytes())
    return h.hexdigest()


def test_metric_names_and_units():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    for m in metrics:
        assert name.match(m["name"]) and unit.match(m["unit"]), m
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert set(PLAN["workloads"]) == set(WORKLOADS)
    layer_names = {m["name"] for m in BENCH["per_layer"]}
    e2e_names = {m["name"] for m in BENCH["end_to_end"]}
    for p in PLAN["predictions"]:
        assert set(p["per_layer"]) <= layer_names, p
        assert set(p["moves"]) <= e2e_names, p
        assert set(p["mainly_on"] + p["flat_on"]) <= set(WORKLOADS), p


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_determines_inputs(workload, tmp_path):
    digests = []
    for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
        manifest = inputs.prepare(workload, seed, tmp_path / sub, quick=True)
        digests.append(tree_digest(tmp_path / sub, manifest))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def corrupt(workload, out):
    """A copy of a job's output, wrong by a little more than the tolerance."""
    if workload == "stream_chunks":
        return ampenv.Signal(out.samples + 1e-6, out.sample_rate)
    if workload == "compare_synth":
        row = out.rows[0]
        rows = (type(row)(**dict(vars(row), rmse_rel=row.rmse_rel + 1e-6)),) + out.rows[1:]
        return type(out)(rows, out.reference)
    job_out = Path(out)
    if workload == "file_long":
        data = bytearray(job_out.read_bytes())
        sample = int.from_bytes(data[1000:1002], "little", signed=True)
        data[1000:1002] = (sample + 2 if sample < 0 else sample - 2).to_bytes(2, "little", signed=True)
        job_out.write_bytes(bytes(data))
    else:
        lines = job_out.read_text().splitlines()
        cells = lines[500].split(",")
        cells[4] = "%.9g" % (float(cells[4]) * (1 + 1e-6) + 1e-6)
        lines[500] = ",".join(cells)
        job_out.write_text("\n".join(lines) + "\n")
    return 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_output_is_caught(workload, tmp_path):
    load = prepared(workload, 1, tmp_path)
    load.start_cycle()
    job = load.jobs[0]
    out = job.run(jobs.plain_call)
    assert job.check(out) is None
    target = job.out if workload in ("file_long", "clips_csv") else out
    assert job.check(corrupt(workload, target)) is not None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_kernel_output_counts_as_failed(workload, tmp_path, monkeypatch):
    load = prepared(workload, 1, tmp_path)
    loop, _ = worker.run_untraced(load, 0.0)
    assert (len(loop.times_ms), loop.failed) == (1, 0)

    sos_filter = ampenv.kernels.sos_filter

    def off_by_a_little(sos, x, zi):
        y, zf = sos_filter(sos, x, zi)
        return y + 1e-3, zf

    monkeypatch.setattr(ampenv.kernels, "sos_filter", off_by_a_little)
    loop, _ = worker.run_untraced(load, 0.0)
    assert (len(loop.times_ms), loop.failed) == (1, 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload, tmp_path):
    load = prepared(workload, 2, tmp_path / "in")
    original = ampenv.kernels.sos_filter
    loop, extra = worker.run_traced(load, 0.0, tmp_path / "spans.json")
    assert ampenv.kernels.sos_filter is original
    assert loop.failed == 0 and extra["digest_mismatches"] == 0, loop.errors
    layers = extra["per_layer"]
    for m in BENCH["per_layer"]:
        assert np.isfinite(layers[m["name"]]), m
    for p in PLAN["predictions"]:
        if workload in p["mainly_on"]:
            for name in p["per_layer"]:
                if name != "trace.overhead_frac":
                    assert layers[name] > 0, name
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert {s[0] for s in spans} >= {"job", "kernels.sos_filter"}


def test_tail_is_highest_percentile_with_ten_jobs_beyond_up_to_p99():
    assert run.tail(list(range(1, 31))) == (20, 100.0 * 20 / 30, 10)
    assert run.tail([5.0, 1.0, 3.0]) == (5.0, 100.0, 0)
    assert run.tail(list(range(19, 0, -1))) == (19, 100.0, 0)
    assert run.tail(list(range(1, 2001))) == (1980, 99.0, 20)

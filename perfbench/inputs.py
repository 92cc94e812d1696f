"""Seeded inputs and their oracle outputs, made during set-up.

Everything here runs in the parent process before any job is timed. It
writes the job inputs (WAV files, raw sample files) and the expected outputs
of each job, computed with scipy and plain NumPy rather than with ampenv's
own kernels, into a work directory, and returns a JSON-able manifest that
``jobs.py`` turns into runnable jobs inside the measured worker process.

The same seed gives byte-identical files.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np
from scipy import signal as sps

RATE = 44100.0
ORDER = 4
PAD = 3 * (2 * ORDER + 1)
KINDS = ("am_tone", "multi_carrier_am", "chirp_am", "noise_burst")
# (bunch_size, cutoff_hz) of the presets documented in the README.
PRESETS = {
    "canary": (35, 300.0),
    "whale": (50, 300.0),
    "speech": (50, 100.0),
    "piano": (200, 100.0),
}
FILE_LONG_S = 60.0
CLIP_S = 1.5
STREAM_BUNCH = 44
STREAM_CUTOFF = 150.0
COMPARE_S = 1.5


# -- signal helpers (independent of ampenv) ---------------------------------


def synth(kind, carriers, fmod, depth, n, fs, noise_seed):
    """The synthetic recipe documented on ``ampenv.SyntheticSpec``."""
    t = np.arange(n) / fs
    env = (1.0 + depth * np.sin(2.0 * np.pi * fmod * t)) / (1.0 + depth)
    if kind == "am_tone":
        carrier = np.sin(2.0 * np.pi * carriers[0] * t)
    elif kind == "multi_carrier_am":
        carrier = np.zeros(n)
        for c in carriers:
            carrier += np.sin(2.0 * np.pi * c * t)
        carrier /= np.max(np.abs(carrier))
    elif kind == "chirp_am":
        f0, f1 = carriers
        carrier = np.sin(2.0 * np.pi * (f0 * t + (f1 - f0) * t * t / (2.0 * (n / fs))))
    else:
        carrier = np.random.default_rng(noise_seed).standard_normal(n)
        carrier /= np.max(np.abs(carrier))
    return env * carrier, env


def draw_spec(rng, kind, duration_s):
    if kind == "am_tone":
        carriers = [float(rng.uniform(200.0, 4000.0))]
    elif kind == "multi_carrier_am":
        carriers = [float(c) for c in rng.uniform(200.0, 4000.0, 3)]
    elif kind == "chirp_am":
        carriers = [float(rng.uniform(200.0, 1000.0)), float(rng.uniform(2000.0, 6000.0))]
    else:
        carriers = [1000.0]
    return {
        "kind": kind,
        "carrier_hz": carriers,
        "modulator_hz": float(rng.uniform(1.0, 12.0)),
        "depth": float(rng.uniform(0.2, 0.9)),
        "duration_s": duration_s,
        "sample_rate_hz": RATE,
        "seed": int(rng.integers(2**31)),
    }


def synth_spec(spec):
    n = int(round(spec["duration_s"] * spec["sample_rate_hz"]))
    return synth(spec["kind"], spec["carrier_hz"], spec["modulator_hz"], spec["depth"],
                 n, spec["sample_rate_hz"], spec["seed"])


def recording(rng, n):
    """A mix of slowly modulated tones over a low noise floor, peak 0.9.

    The noise floor keeps the filter state away from subnormal numbers.
    """
    t = np.arange(n) / RATE
    x = 0.005 * rng.standard_normal(n)
    for _ in range(3):
        fc = rng.uniform(100.0, 4000.0)
        fm = rng.uniform(0.1, 8.0)
        depth = rng.uniform(0.2, 0.9)
        x += (1.0 + depth * np.sin(2.0 * np.pi * fm * t + rng.uniform(0, 6.28))) * np.sin(
            2.0 * np.pi * fc * t
        )
    return 0.9 * x / np.max(np.abs(x))


def bunch_max(x, n):
    full = len(x) // n
    out = np.empty_like(x)
    out[: full * n] = np.repeat(x[: full * n].reshape(full, n).max(axis=1), n)
    if full * n < len(x):
        out[full * n :] = x[full * n :].max()
    return out


def oracle_sos(cutoff_hz, design_sections):
    """Second-order sections for the oracle, on ampenv's own design.

    The package design is used as long as its frequency response matches
    scipy's Butterworth design; otherwise scipy's sections are returned, so
    that a broken design shows up as failed output checks.
    """
    ref = sps.butter(ORDER, cutoff_hz, fs=RATE, output="sos")
    pkg = np.hstack([design_sections[:, :3], np.ones((len(design_sections), 1)), design_sections[:, 3:]])
    _, h_ref = sps.sosfreqz(ref, worN=2048, fs=RATE)
    _, h_pkg = sps.sosfreqz(pkg, worN=2048, fs=RATE)
    return pkg if np.max(np.abs(h_ref - h_pkg)) <= 1e-9 else ref


def zero_phase(sos, x):
    """Odd padding of 3*(2*order+1) and scaled steady-state initial conditions."""
    return sps.sosfiltfilt(sos, x, padtype="odd", padlen=PAD)


def peak_hold(sos, x, bunch):
    return zero_phase(sos, bunch_max(np.abs(x), bunch))


# -- file helpers -----------------------------------------------------------


def quantize(x, fmt):
    """Return (payload bytes, samples exactly as a WAV reader decodes them)."""
    if fmt == "pcm16":
        q = np.rint(x * 32767.0).astype("<i2")
        return q.tobytes(), q.astype(np.float64) / 32768.0
    if fmt == "pcm24":
        q = np.rint(x * 8388607.0).astype("<i4")
        payload = q.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
        return payload, q.astype(np.float64) / 8388608.0
    f = x.astype("<f4")
    return f.tobytes(), f.astype(np.float64)


def write_wav(path, channels, fmt):
    """Interleave channels and write a RIFF/WAVE file; returns decoded channels."""
    frames = np.stack(channels, axis=1).reshape(-1)
    payload, decoded = quantize(frames, fmt)
    n_ch = len(channels)
    bits = 16 if fmt == "pcm16" else (24 if fmt == "pcm24" else 32)
    tag = 3 if fmt == "float32" else 1
    block = n_ch * bits // 8
    rate = int(RATE)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, tag, n_ch, rate, rate * block, block, bits,
        b"data", len(payload),
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)
    return decoded.reshape(-1, n_ch)


def pcm16_expected(env):
    return np.clip(np.rint(np.clip(env, -1.0, 1.0) * 32768.0), -32768, 32767).astype("<i2")


# -- workloads --------------------------------------------------------------


def _design(cutoff_hz):
    from ampenv import FilterSpec, butterworth_lowpass

    return butterworth_lowpass(FilterSpec(cutoff_hz, RATE, ORDER)).sections


def prepare_file_long(rng, work: Path, quick: bool):
    n = int((2.0 if quick else FILE_LONG_S) * RATE)
    wav = work / "rec.wav"
    x = write_wav(wav, [recording(rng, n)], "pcm16")[:, 0]
    jobs = []
    for i, (params, bunch, cutoff) in enumerate(
        ((["--cutoff", "20", "--bunch", "200"], 200, 20.0), (["--preset", "whale"], 50, 300.0))
    ):
        expect = work / ("expect%d.i16" % i)
        pcm16_expected(peak_hold(oracle_sos(cutoff, _design(cutoff)), x, bunch)).tofile(expect)
        out = work / ("out%d.wav" % i)
        jobs.append({
            "argv": ["envelope", str(wav), *params, "-o", str(out)],
            "out": str(out), "expect": str(expect), "n": n, "audio_s": n / RATE,
        })
    return {"kind": "wav", "jobs": jobs}


def prepare_clips_csv(rng, work: Path, quick: bool):
    n = int(CLIP_S * RATE)
    # Every seed gets the same mix of channel counts and formats, dealt out
    # to the clips in a seeded order, so that a cycle's cost is seed-independent.
    channels = rng.permutation([1] * 8 + [2] * 8)
    formats = rng.permutation(["pcm16"] * 6 + ["pcm24"] * 5 + ["float32"] * 5)
    jobs = []
    for k, kind in enumerate(KINDS):
        for p, preset in enumerate(sorted(PRESETS)):
            n_ch = int(channels[4 * k + p])
            fmt = str(formats[4 * k + p])
            chans = [0.95 * synth_spec(draw_spec(rng, kind, CLIP_S))[0] for _ in range(n_ch)]
            wav = work / ("clip%d%d.wav" % (k, p))
            decoded = write_wav(wav, chans, fmt)
            mono = np.stack([decoded[:, c] for c in range(n_ch)]).mean(axis=0)
            bunch, cutoff = PRESETS[preset]
            stair = bunch_max(np.abs(mono), bunch)
            env = zero_phase(oracle_sos(cutoff, _design(cutoff)), stair)
            table = np.column_stack([np.arange(n) / RATE, mono, np.abs(mono), stair, env])
            expect = work / ("clip%d%d.f64" % (k, p))
            table.astype("<f8").tofile(expect)
            jobs.append({
                "argv": ["envelope", str(wav), "--preset", preset],
                "out": str(work / ("clip%d%d_envelope.csv" % (k, p))),
                "expect": str(expect), "n": n, "audio_s": n / RATE,
                "scale": float(np.max(np.abs(env))),
            })
    return {"kind": "csv", "jobs": jobs}


def prepare_stream_chunks(rng, work: Path, quick: bool):
    # Each chunk length from 1 to 200 bunches once, in a seeded order: about
    # 20 s of audio, with the same multiset of job sizes for every seed.
    lengths = [int(b) * STREAM_BUNCH for b in rng.permutation(np.arange(1, 201))]
    if quick:
        lengths = lengths[: int(np.searchsorted(np.cumsum(lengths), 2.0 * RATE))]
    x = recording(rng, sum(lengths))
    x.astype("<f8").tofile(work / "stream.f64")
    stair = bunch_max(np.abs(x), STREAM_BUNCH)
    expect = sps.sosfilt(oracle_sos(STREAM_CUTOFF, _design(STREAM_CUTOFF)), stair)
    expect.astype("<f8").tofile(work / "stream_expect.f64")
    return {
        "kind": "stream",
        "audio": str(work / "stream.f64"), "expect": str(work / "stream_expect.f64"),
        "lengths": lengths, "bunch": STREAM_BUNCH, "cutoff_hz": STREAM_CUTOFF,
        "rate": RATE, "scale": float(np.max(np.abs(expect))),
    }


def _rms(x, w):
    n = len(x)
    half = w // 2
    padded = np.concatenate([np.zeros(half), x * x, np.zeros(w - half - 1)])
    sums = np.lib.stride_tricks.sliding_window_view(padded, w).sum(axis=1)
    idx = np.arange(n)
    counts = np.minimum(n, idx - half + w) - np.maximum(0, idx - half)
    return np.sqrt(sums / counts)


def _report_row(est, truth):
    n = len(truth)
    lo, hi = n // 10, n - n // 10
    e, t = est[lo:hi], truth[lo:hi]
    return [
        float(np.sqrt(np.mean((e - t) ** 2)) / np.sqrt(np.mean(t * t))),
        float(e.max() / t.max()),
        float(e.mean() / t.mean()),
    ]


def prepare_compare_synth(rng, work: Path, quick: bool):
    jobs = []
    for kind, preset in zip(KINDS, rng.permutation(sorted(PRESETS))):
        spec = draw_spec(rng, kind, COMPARE_S)
        bunch, cutoff = PRESETS[str(preset)]
        x, truth = synth_spec(spec)
        sos = oracle_sos(cutoff, _design(cutoff))
        expect = {
            "three_step": _report_row(peak_hold(sos, x, bunch), truth),
            "follower": _report_row(zero_phase(sos, np.abs(x)), truth),
            "rms": _report_row(_rms(x, bunch), truth),
            "hilbert": _report_row(np.abs(sps.hilbert(x)), truth),
        }
        configs = [
            ["three_step", {"bunch_size": bunch, "cutoff_hz": cutoff}],
            ["follower", {"cutoff_hz": cutoff}],
            ["rms", {"window_samples": bunch}],
            ["hilbert", {}],
        ]
        jobs.append({"spec": spec, "configs": configs, "expect": expect, "audio_s": COMPARE_S})
    return {"kind": "compare", "jobs": jobs}


PREPARE = {
    "file_long": prepare_file_long,
    "clips_csv": prepare_clips_csv,
    "stream_chunks": prepare_stream_chunks,
    "compare_synth": prepare_compare_synth,
}


def prepare(workload: str, seed: int, work: Path, quick: bool = False) -> dict:
    """Write the inputs and oracle outputs of one workload; return its manifest.

    ``quick`` shortens the long recording and the stream to 2 s, for the
    benchmark's own tests.
    """
    rng = np.random.default_rng([seed, list(PREPARE).index(workload)])
    work.mkdir(parents=True, exist_ok=True)
    manifest = PREPARE[workload](rng, work, quick)
    manifest["workload"] = workload
    manifest["seed"] = seed
    return manifest

"""Command-line interface.

Subcommands:

* ``envelope``    extract an envelope from a WAV file, export WAV/CSV
* ``compare``     method-comparison report on a WAV or a synthetic AM tone
* ``synth``       generate a synthetic signal with its true envelope
* ``bench``       time the pipeline against a runtime budget
* ``filter-dump`` print designed filter coefficients and response table

Exit codes: 0 success, 1 I/O error, 2 validation error, 3 benchmark over
budget. Errors are a single line on stderr; success writes nothing there.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .audio_io import WavFormatError, read_wav, to_mono, wav_header_rate, write_csv, write_wav
from .bench import (
    REFERENCE_DURATION_S, RUNTIME_REPEATS, RUNTIME_WARMUP, SYNTH_KINDS, SyntheticSpec,
    compare_methods, generate, three_step_runtime_ms,
)
from .envelopes import PRESETS, RMS_WINDOW, EnvelopeParams, three_step_stages
from .filter_design import FilterSpec, butterworth_lowpass, frequency_response


def _resolve_params(args) -> EnvelopeParams:
    base = PRESETS[args.preset] if args.preset else EnvelopeParams()
    return EnvelopeParams(
        bunch_size=args.bunch if args.bunch is not None else base.bunch_size,
        cutoff_hz=args.cutoff if args.cutoff is not None else base.cutoff_hz,
        filter_order=args.order if args.order is not None else base.filter_order,
    )


def _output_plan(args, formats: tuple[str, str], default_stem: Path | None = None) -> list[tuple[str, Path]]:
    """Map -o/--format onto a list of (format, path) writes.

    ``formats`` holds "csv" and "wav", the command's default first (also the
    order of --format both). Without --format, an -o suffix of .csv or .wav
    picks the format. Each path is -o less that suffix, or ``default_stem``,
    plus its format's suffix.
    """
    fmt = args.format
    stem = default_stem
    if args.output:
        stem = Path(args.output)
        suffix = stem.suffix.lower()
        if suffix in (".csv", ".wav"):
            stem = stem.with_suffix("")
            fmt = fmt or suffix[1:]
    fmt = fmt or formats[0]
    chosen = formats if fmt == "both" else (fmt,)
    return [(f, stem.with_name(stem.name + "." + f)) for f in chosen]


def cmd_envelope(args) -> int:
    audio = read_wav(args.input)
    sig = to_mono(audio, args.channel)
    params = _resolve_params(args)
    default_stem = Path(args.input).with_suffix("")
    default_stem = default_stem.with_name(default_stem.name + "_envelope")
    plan = _output_plan(args, ("csv", "wav"), default_stem)
    if any(kind == "wav" for kind, _ in plan):
        wav_header_rate(sig.sample_rate)  # before any output file is opened
    t0 = time.perf_counter()
    rectified, staircase, envelope = three_step_stages(sig, params)
    runtime_ms = (time.perf_counter() - t0) * 1e3

    written = []
    clipped = 0
    for kind, path in plan:
        if kind == "csv":
            write_csv(
                path,
                {"signal": sig, "abs": rectified, "staircase": staircase, "envelope": envelope},
            )
        else:
            clipped += write_wav(path, envelope)
        written.append(str(path))

    print(
        "%s: %d samples @ %g Hz | bunch=%d cutoff=%g Hz order=%d | %.2f ms | wrote %s"
        % (
            args.input,
            len(sig),
            sig.sample_rate,
            params.bunch_size,
            params.cutoff_hz,
            params.filter_order,
            runtime_ms,
            ", ".join(written),
        )
    )
    if clipped:
        print("note: %d envelope samples clipped to [-1, 1] in WAV output" % clipped)
    return 0


def _compare_input(args):
    if args.input:
        audio = read_wav(args.input)
        return to_mono(audio, args.channel), None, args.input
    spec = SyntheticSpec(
        carrier_hz=args.carrier,
        modulator_hz=args.modulator,
        depth=args.depth,
        duration_s=args.duration,
        sample_rate_hz=args.rate,
    )
    sig, truth = generate(spec)
    label = "synthetic AM tone (carrier %g Hz, modulator %g Hz, depth %g)" % (
        args.carrier,
        args.modulator,
        args.depth,
    )
    return sig, truth, label


def cmd_compare(args) -> int:
    sig, truth, label = _compare_input(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if args.with_hilbert and "hilbert" not in methods:
        methods.append("hilbert")
    flag_configs = {
        "three_step": {"bunch_size": args.bunch, "cutoff_hz": args.cutoff, "filter_order": args.order},
        "follower": {"cutoff_hz": args.follower_cutoff, "filter_order": args.order},
        "rms": {"window_samples": args.rms_window},
    }
    report = compare_methods(sig, truth, [(m, flag_configs.get(m, {})) for m in methods])
    print("input: %s (%d samples @ %g Hz)" % (label, len(sig), sig.sample_rate))
    print(report.to_table())
    if args.output:
        with open(args.output, "w", newline="") as f:
            f.write(report.to_csv())
        print("wrote %s" % args.output)
    return 0


def cmd_synth(args) -> int:
    spec = SyntheticSpec(
        kind=args.kind,
        carrier_hz=tuple(args.carrier),
        modulator_hz=args.modulator,
        depth=args.depth,
        duration_s=args.duration,
        sample_rate_hz=args.rate,
        seed=args.seed,
    )
    sig, truth = generate(spec)

    written = []
    for kind, path in _output_plan(args, ("wav", "csv")):
        if kind == "wav":
            truth_path = path.with_name(path.stem + "_truth.wav")
            write_wav(path, sig)
            write_wav(truth_path, truth)
            written += [str(path), str(truth_path)]
        else:
            write_csv(path, {"signal": sig, "truth": truth})
            written.append(str(path))

    print(
        "%s: %d samples @ %g Hz | wrote %s" % (args.kind, len(sig), sig.sample_rate, ", ".join(written))
    )
    return 0


def cmd_bench(args) -> int:
    params = EnvelopeParams(args.bunch, args.cutoff, args.order)
    spec = SyntheticSpec(duration_s=args.duration, sample_rate_hz=args.rate)
    print(
        "three-step pipeline: %d samples (%g s @ %g Hz), bunch=%d cutoff=%g Hz order=%d"
        % (spec.n_samples, args.duration, args.rate, params.bunch_size, params.cutoff_hz, params.filter_order)
    )
    measured = three_step_runtime_ms(args.duration, args.rate, params)
    print("runtime: %.3f ms (median of %d after %d warmup)" % (measured, RUNTIME_REPEATS, RUNTIME_WARMUP))
    if measured < args.budget_ms:
        print("PASS: %.3f ms within %g ms budget" % (measured, args.budget_ms))
        return 0
    print("FAIL: %.3f ms exceeds %g ms budget" % (measured, args.budget_ms))
    return 3


def cmd_filter_dump(args) -> int:
    design = butterworth_lowpass(FilterSpec(args.cutoff, args.rate, args.order))
    for i, (b0, b1, b2, a1, a2) in enumerate(design.sections, 1):
        print(
            "section %d: b0=%.17g b1=%.17g b2=%.17g a1=%.17g a2=%.17g" % (i, b0, b1, b2, a1, a2)
        )

    nyquist = args.rate / 2.0
    freqs = np.union1d(np.linspace(0.0, nyquist, args.points), [args.cutoff])
    h = frequency_response(design, freqs)
    magnitude = np.abs(h)
    mag_db = 20.0 * np.log10(np.maximum(magnitude, 1e-15))
    phase_deg = np.degrees(np.angle(h))
    lines = ["freq_hz,magnitude_db,phase_deg"]
    for f, m, p in zip(freqs, mag_db, phase_deg):
        lines.append("%.9g,%.9g,%.9g" % (f, m, p))
    table = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", newline="") as f:
            f.write(table)
        print("wrote %s" % args.output)
    else:
        print(table, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ampenv", description="Amplitude envelope estimation and comparison."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    env = sub.add_parser("envelope", help="extract an envelope from a WAV file")
    env.add_argument("input", help="input WAV path")
    env.add_argument("-o", "--output", help="output path (.csv or .wav)")
    env.add_argument("--format", choices=("csv", "wav", "both"), help="output format (default: from -o suffix, else csv)")
    env.add_argument("--preset", choices=sorted(PRESETS), help="tuned parameter preset")
    env.add_argument("--bunch", type=int, help="bunch size in samples")
    env.add_argument("--cutoff", type=float, help="low-pass cutoff in Hz")
    env.add_argument("--order", type=int, help="filter order (default %d)" % EnvelopeParams.filter_order)
    env.add_argument("--channel", default="mean", help="'mean' or a channel index (default %(default)s)")
    env.set_defaults(func=cmd_envelope)

    cmp_ = sub.add_parser("compare", help="compare envelope methods")
    cmp_.add_argument("input", nargs="?", help="input WAV; omit to use a synthetic AM tone")
    cmp_.add_argument("-o", "--output", help="write the report as CSV here")
    cmp_.add_argument("--methods", default="three_step,follower,rms", help="comma-separated method list")
    cmp_.add_argument("--with-hilbert", action="store_true", help="add the Hilbert method")
    # --bunch/--cutoff default to the peak-hold setting of the method-comparison figure
    cmp_.add_argument("--bunch", type=int, default=35, help="three-step bunch size (default %(default)d)")
    cmp_.add_argument("--cutoff", type=float, default=120.0, help="three-step cutoff Hz (default %(default)g)")
    cmp_.add_argument("--order", type=int, default=EnvelopeParams.filter_order, help="filter order (default %(default)d)")
    cmp_.add_argument("--follower-cutoff", type=float, default=EnvelopeParams.cutoff_hz, help="follower cutoff Hz (default %(default)g)")
    cmp_.add_argument("--rms-window", type=int, default=RMS_WINDOW, help="RMS window in samples (default %(default)d)")
    cmp_.add_argument("--channel", default="mean", help="'mean' or a channel index")
    cmp_.add_argument("--carrier", type=float, default=SyntheticSpec.carrier_hz, help="synthetic carrier Hz")
    cmp_.add_argument("--modulator", type=float, default=SyntheticSpec.modulator_hz, help="synthetic modulator Hz")
    cmp_.add_argument("--depth", type=float, default=SyntheticSpec.depth, help="synthetic modulation depth")
    cmp_.add_argument("--duration", type=float, default=SyntheticSpec.duration_s, help="synthetic duration s")
    cmp_.add_argument("--rate", type=float, default=SyntheticSpec.sample_rate_hz, help="synthetic sample rate Hz")
    cmp_.set_defaults(func=cmd_compare)

    syn = sub.add_parser("synth", help="generate a synthetic signal and its true envelope")
    syn.add_argument("-o", "--output", required=True, help="output path (suffix picks format)")
    syn.add_argument("--kind", choices=SYNTH_KINDS, default=SyntheticSpec.kind)
    syn.add_argument("--carrier", type=float, nargs="+", default=[SyntheticSpec.carrier_hz], help="carrier Hz (two values for chirp, several for multi)")
    syn.add_argument("--modulator", type=float, default=SyntheticSpec.modulator_hz, help="modulator Hz")
    syn.add_argument("--depth", type=float, default=SyntheticSpec.depth, help="modulation depth in [0, 1]")
    syn.add_argument("--duration", type=float, default=SyntheticSpec.duration_s, help="duration s")
    syn.add_argument("--rate", type=float, default=SyntheticSpec.sample_rate_hz, help="sample rate Hz")
    syn.add_argument("--seed", type=int, default=SyntheticSpec.seed, help="seed for noise kinds")
    syn.add_argument("--format", choices=("wav", "csv", "both"), help="default: from -o suffix")
    syn.set_defaults(func=cmd_synth)

    ben = sub.add_parser("bench", help="time the pipeline against a budget")
    ben.add_argument("--duration", type=float, default=REFERENCE_DURATION_S, help="signal duration s (default %(default)g)")
    ben.add_argument("--rate", type=float, default=SyntheticSpec.sample_rate_hz, help="sample rate Hz (default %(default)g)")
    ben.add_argument("--budget-ms", type=float, default=500.0, help="runtime budget in ms (default %(default)g)")
    ben.add_argument("--bunch", type=int, default=EnvelopeParams.bunch_size)
    ben.add_argument("--cutoff", type=float, default=EnvelopeParams.cutoff_hz)
    ben.add_argument("--order", type=int, default=EnvelopeParams.filter_order)
    ben.set_defaults(func=cmd_bench)

    dump = sub.add_parser("filter-dump", help="print filter coefficients and response")
    dump.add_argument("--cutoff", type=float, required=True, help="cutoff Hz")
    dump.add_argument("--order", type=int, default=EnvelopeParams.filter_order)
    dump.add_argument("--rate", type=float, default=44100.0)
    dump.add_argument("--points", type=int, default=256, help="response grid size")
    dump.add_argument("-o", "--output", help="write the response table as CSV here")
    dump.set_defaults(func=cmd_filter_dump)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WavFormatError, OSError) as exc:
        print("ampenv: %s" % exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print("ampenv: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

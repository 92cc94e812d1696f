import struct

import numpy as np
import pytest

from ampenv import (
    PRESETS, EnvelopeParams, Signal, SyntheticSpec, cli, kernels, read_wav, three_step_envelope, to_mono,
    write_wav,
)
from ampenv.cli import main


@pytest.fixture
def tone_wav(tmp_path):
    """0.3 s AM-ish tone at 44.1 kHz, written as 16-bit WAV."""
    t = np.arange(int(0.3 * 44100)) / 44100.0
    x = 0.8 * (1.0 + 0.4 * np.sin(2.0 * np.pi * 6.0 * t)) / 1.4 * np.sin(2.0 * np.pi * 2000.0 * t)
    path = tmp_path / "tone.wav"
    write_wav(path, Signal(x, 44100.0))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnvelopeCommand:
    def test_preset_canary_to_csv(self, capsys, tone_wav, tmp_path):
        out = tmp_path / "env.csv"
        code, stdout, stderr = run(capsys, "envelope", str(tone_wav), "-o", str(out), "--preset", "canary")
        assert code == 0
        assert stderr == ""
        assert "bunch=35" in stdout and "cutoff=300" in stdout
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "time_s,signal,abs,staircase,envelope"
        assert len(lines) == 1 + int(0.3 * 44100)

    def test_figure_configuration_flags(self, capsys, tone_wav, tmp_path):
        out = tmp_path / "env.csv"
        code, stdout, stderr = run(
            capsys, "envelope", str(tone_wav), "-o", str(out), "--bunch", "35", "--cutoff", "120"
        )
        assert code == 0
        assert stderr == ""
        assert "bunch=35" in stdout and "cutoff=120" in stdout

    def test_explicit_flag_overrides_preset(self, capsys, tone_wav, tmp_path):
        code, stdout, _ = run(
            capsys,
            "envelope", str(tone_wav),
            "-o", str(tmp_path / "env.csv"),
            "--preset", "canary", "--cutoff", "150",
        )
        assert code == 0
        assert "bunch=35" in stdout and "cutoff=150" in stdout

    def test_wav_output_and_both(self, capsys, tone_wav, tmp_path):
        wav_out = tmp_path / "env.wav"
        code, _, _ = run(capsys, "envelope", str(tone_wav), "-o", str(wav_out))
        assert code == 0
        env = read_wav(wav_out)
        assert env.n_samples == int(0.3 * 44100)
        # envelope of a rectified tone stays clearly positive in the middle
        assert env.channels[0].samples[env.n_samples // 2] > 0.2

        base = tmp_path / "pair"
        code, _, _ = run(capsys, "envelope", str(tone_wav), "-o", str(base), "--format", "both")
        assert code == 0
        assert (tmp_path / "pair.csv").exists() and (tmp_path / "pair.wav").exists()

    def test_wav_is_the_same_from_every_format_across_pieces(self, capsys, tone_wav, tmp_path, set_span):
        # 13,230 samples in pieces of 1,000: the WAV written alone, beside
        # the CSV, and from three_step_envelope are the same bytes.
        set_span(1000)
        code, _, stderr = run(capsys, "envelope", str(tone_wav), "-o", str(tmp_path / "only.wav"), "--preset", "canary")
        assert (code, stderr) == (0, "")
        code, _, stderr = run(capsys, "envelope", str(tone_wav), "-o", str(tmp_path / "both"), "--preset", "canary", "--format", "both")
        assert (code, stderr) == (0, "")
        expected = three_step_envelope(to_mono(read_wav(tone_wav)), PRESETS["canary"]).envelope
        write_wav(tmp_path / "expected.wav", expected)
        assert (tmp_path / "only.wav").read_bytes() == (tmp_path / "both.wav").read_bytes()
        assert (tmp_path / "only.wav").read_bytes() == (tmp_path / "expected.wav").read_bytes()

    @pytest.mark.parametrize("bunch", [50, 300])
    def test_staircase_filtered_at_the_group_rate_up_to_the_hold(self, bunch, capsys, tone_wav, tmp_path, monkeypatch, set_span):
        # 13,230 samples in pieces of 1,000. Bunches up to kernels.HOLD run
        # no full-rate pass: three kernel calls, on the pads and the samples
        # after the last whole group. Bunch 300 filters the staircase in
        # pieces. Either way the WAV is three_step_envelope's.
        piece = set_span(1000)
        calls = []
        sos_filter = kernels.sos_filter
        monkeypatch.setattr(kernels, "sos_filter", lambda *a: calls.append(len(a[1])) or sos_filter(*a))
        out = tmp_path / "env.wav"
        code, _, stderr = run(capsys, "envelope", str(tone_wav), "-o", str(out), "--bunch", str(bunch))
        assert (code, stderr) == (0, "")
        n, pad = int(0.3 * 44100), 27  # the default order 4
        if bunch <= kernels.HOLD:
            assert len(calls) == 3 and max(calls) <= kernels.HOLD // bunch * bunch + 2 * pad
        else:
            assert len(calls) == 2 * -(-(n + 2 * pad) // piece) and sum(calls) == 2 * (n + 2 * pad)
        expected = three_step_envelope(to_mono(read_wav(tone_wav)), EnvelopeParams(bunch)).envelope
        write_wav(tmp_path / "expected.wav", expected)
        assert out.read_bytes() == (tmp_path / "expected.wav").read_bytes()

    def test_default_output_name(self, capsys, tone_wav):
        code, stdout, _ = run(capsys, "envelope", str(tone_wav))
        assert code == 0
        expected = tone_wav.with_name("tone_envelope.csv")
        assert expected.exists()
        assert str(expected) in stdout

    @pytest.mark.parametrize(
        "output, extra, written",
        [
            ("out", [], ["out.csv"]),
            ("x.csv", ["--format", "wav"], ["x.wav"]),
            ("x.wav", ["--format", "csv"], ["x.csv"]),
            ("run.v2", ["--format", "both"], ["run.v2.csv", "run.v2.wav"]),
            ("Out.WAV", [], ["Out.WAV"]),
            ("x.Csv", [], ["x.Csv"]),
            ("x.CSV", ["--format", "wav"], ["x.wav"]),
            ("x.WAV", ["--format", "both"], ["x.csv", "x.WAV"]),
        ],
        ids=[
            "no-suffix", "csv-suffix-format-wav", "wav-suffix-format-csv", "dotted-both",
            "upper-wav-suffix", "mixed-csv-suffix", "upper-csv-suffix-format-wav", "upper-wav-suffix-both",
        ],
    )
    def test_output_takes_its_format_suffix(self, capsys, tone_wav, tmp_path, output, extra, written):
        # The -o suffix that names a format is kept as written: -o is the
        # exact file written, also on a case-sensitive file system.
        code, stdout, _ = run(capsys, "envelope", str(tone_wav), "-o", str(tmp_path / output), *extra)
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir() if p != tone_wav) == sorted(written)
        assert stdout.rstrip().endswith("wrote " + ", ".join(str(tmp_path / name) for name in written))
        for name in written:
            if name.lower().endswith(".csv"):
                assert (tmp_path / name).read_text().startswith("time_s,signal,abs,staircase,envelope\n")
            else:
                assert read_wav(tmp_path / name).n_samples == int(0.3 * 44100)

    def test_default_output_name_keeps_dotted_stem(self, capsys, tone_wav):
        dotted = tone_wav.rename(tone_wav.with_name("my.tone.wav"))
        code, stdout, _ = run(capsys, "envelope", str(dotted))
        assert code == 0
        expected = dotted.with_name("my.tone_envelope.csv")
        assert expected.exists()
        assert str(expected) in stdout

    def test_wav_clip_note(self, capsys, tmp_path):
        # A full-scale square burst: the low-pass overshoots the staircase's
        # step, so the envelope rises above 1 and the WAV clips it.
        t = np.arange(13230) / 44100.0
        x = np.where((t > 0.1) & (t < 0.2), np.sign(np.sin(2.0 * np.pi * 1000.0 * t)), 0.0)
        wav = tmp_path / "burst.wav"
        write_wav(wav, Signal(x, 44100.0))
        code, stdout, stderr = run(capsys, "envelope", str(wav), "-o", str(tmp_path / "env.wav"))
        assert (code, stderr) == (0, "")
        clipped = int(np.count_nonzero(three_step_envelope(read_wav(wav).channels[0]).envelope.samples > 1.0))
        assert clipped > 0
        assert stdout.endswith("note: %d envelope samples clipped to [-1, 1] in WAV output\n" % clipped)

    def test_missing_input_exits_1(self, capsys, tmp_path):
        missing = tmp_path / "ghost.wav"
        code, stdout, stderr = run(capsys, "envelope", str(missing))
        assert code == 1
        assert str(missing) in stderr
        assert stderr.count("\n") == 1

    def test_non_finite_float_wav_exits_1(self, capsys, tmp_path):
        path = tmp_path / "nan.wav"
        write_wav(path, Signal(np.zeros(4410), 44100.0), "float32")
        data = bytearray(path.read_bytes())
        data[-4:] = struct.pack("<f", float("nan"))  # last sample
        path.write_bytes(bytes(data))
        out = tmp_path / "env.csv"
        code, stdout, stderr = run(capsys, "envelope", str(path), "-o", str(out))
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("ampenv: non-finite sample")
        assert stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_signalling_nan_float_wav_exits_1(self, capsys, tmp_path):
        path = tmp_path / "snan.wav"
        write_wav(path, Signal(np.zeros(4410), 44100.0), "float32")
        data = bytearray(path.read_bytes())
        data[-4:] = struct.pack("<I", 0x7F800001)  # signalling NaN in the last sample
        path.write_bytes(bytes(data))
        out = tmp_path / "env.csv"
        code, stdout, stderr = run(capsys, "envelope", str(path), "-o", str(out))
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("ampenv: non-finite sample")
        assert stderr.count("\n") == 1
        assert not out.exists()

    def test_cutoff_above_nyquist_exits_2(self, capsys, tone_wav, tmp_path):
        code, _, stderr = run(
            capsys, "envelope", str(tone_wav), "-o", str(tmp_path / "x.csv"), "--cutoff", "30000"
        )
        assert code == 2
        assert "cutoff above Nyquist" in stderr

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cutoff", ["1e-7", "22049.99995"])
    def test_cutoff_float64_cannot_realise_exits_2_with_one_line(self, capsys, tone_wav, tmp_path, cutoff):
        code, _, stderr = run(
            capsys, "envelope", str(tone_wav), "-o", str(tmp_path / "x.csv"), "--cutoff", cutoff
        )
        assert code == 2
        assert stderr.startswith("ampenv: cutoff not realisable in float64") and stderr.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_order_whose_gain_overflows_exits_2_with_one_line(self, capsys, tone_wav, tmp_path):
        code, _, stderr = run(
            capsys, "envelope", str(tone_wav), "-o", str(tmp_path / "x.csv"), "--order", "100"
        )
        assert code == 2
        assert stderr.startswith("ampenv: order not realisable in float64") and stderr.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_rate_a_wav_header_cannot_hold_writes_nothing(self, capsys, tmp_path):
        # read_wav accepts any nonzero 32-bit rate; a pcm16 header holds at most 0x7FFFFFFF Hz
        path = tmp_path / "fast.wav"
        write_wav(path, Signal(np.linspace(-0.5, 0.5, 200), 44100.0))
        data = bytearray(path.read_bytes())
        data[24:28] = struct.pack("<I", 3_000_000_000)  # the fmt chunk's sample rate
        path.write_bytes(bytes(data))
        code, stdout, stderr = run(
            capsys, "envelope", str(path), "-o", str(tmp_path / "out"), "--cutoff", "1e6", "--format", "both"
        )
        assert code == 2
        assert stdout == ""
        assert stderr == "ampenv: sample rate 3e+09 Hz does not fit a pcm16 WAV header\n"
        assert list(tmp_path.iterdir()) == [path]


class TestShortSignal:
    """A signal must be longer than the zero-phase filter's pad, 27 samples at order 4."""

    @pytest.mark.parametrize("command", ["envelope", "compare"])
    @pytest.mark.parametrize("n", [1, 27])
    def test_not_longer_than_pad_exits_2(self, capsys, tmp_path, command, n):
        path = tmp_path / "short.wav"
        write_wav(path, Signal(np.full(n, 0.5), 44100.0))
        code, stdout, stderr = run(capsys, command, str(path), "-o", str(tmp_path / "out.csv"))
        assert code == 2
        assert stdout == ""
        assert stderr == "ampenv: signal shorter than filter transient pad (%d samples <= pad 27)\n" % n
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("n", [1, 27])
    def test_wav_only_not_longer_than_pad_exits_2(self, capsys, tmp_path, n):
        path = tmp_path / "short.wav"
        write_wav(path, Signal(np.full(n, 0.5), 44100.0))
        code, stdout, stderr = run(capsys, "envelope", str(path), "-o", str(tmp_path / "out.wav"))
        assert (code, stdout) == (2, "")
        assert stderr == "ampenv: signal shorter than filter transient pad (%d samples <= pad 27)\n" % n
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("command", ["envelope", "compare"])
    def test_one_past_pad_exits_0(self, capsys, tmp_path, command):
        path = tmp_path / "short.wav"
        write_wav(path, Signal(np.full(28, 0.5), 44100.0))
        code, _, stderr = run(capsys, command, str(path), "-o", str(tmp_path / "out.csv"))
        assert code == 0
        assert stderr == ""
        assert (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("size", [0, 0xFFFFFFFF])
def test_streamed_wav_envelope_exits_0(capsys, tone_wav, tmp_path, size):
    data = bytearray(tone_wav.read_bytes())
    struct.pack_into("<I", data, 40, size)  # the data chunk's size field
    streamed = tmp_path / "streamed.wav"
    streamed.write_bytes(bytes(data))
    code, _, stderr = run(capsys, "envelope", str(streamed), "-o", str(tmp_path / "s.csv"))
    assert (code, stderr) == (0, "")
    run(capsys, "envelope", str(tone_wav), "-o", str(tmp_path / "whole.csv"))
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


class TestCompareCommand:
    def test_synthetic_defaults(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code, stdout, stderr = run(capsys, "compare", "-o", str(out), "--duration", "0.4")
        assert code == 0
        assert stderr == ""
        assert "three_step" in stdout and "follower" in stdout and "rms" in stdout
        assert "reference = ground_truth" in stdout
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("method,param_summary")
        assert len(lines) == 4  # header + 3 methods
        mean_ratio = {l.split(",")[0]: float(l.split(",")[4]) for l in lines[1:]}
        assert mean_ratio["three_step"] > mean_ratio["rms"] > mean_ratio["follower"]

    def test_with_hilbert_adds_row(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code, stdout, _ = run(
            capsys, "compare", "-o", str(out), "--duration", "0.4", "--methods", "three_step,follower,rms,hilbert"
        )
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 5

    def test_report_labels(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code, _, _ = run(capsys, "compare", "-o", str(out), "--duration", "0.4", "--methods", "three_step,follower,rms,hilbert")
        assert code == 0
        labels = [l.split(",")[1] for l in out.read_text().strip().split("\n")[1:]]
        assert labels == ["N=35 fc=120Hz order=4", "fc=150Hz order=4", "window=50", "-"]

        code, _, _ = run(
            capsys, "compare", "-o", str(out), "--duration", "0.4",
            "--bunch", "20", "--cutoff", "200", "--order", "2",
            "--follower-cutoff", "90.5", "--rms-window", "10",
        )
        assert code == 0
        labels = [l.split(",")[1] for l in out.read_text().strip().split("\n")[1:]]
        assert labels == ["N=20 fc=200Hz order=2", "fc=90.5Hz order=2", "window=10"]

    def test_help_shows_defaults(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--help"])
        assert excinfo.value.code == 0
        help_text = capsys.readouterr().out
        for shown in (
            "three-step bunch size (default 35)",
            "three-step cutoff Hz (default 120)",
            "filter order (default 4)",
            "follower cutoff Hz (default 150)",
            "RMS window in samples (default 50)",
        ):
            assert shown in help_text

    def test_wav_input_reference_is_three_step(self, capsys, tone_wav):
        code, stdout, stderr = run(capsys, "compare", str(tone_wav))
        assert code == 0
        assert stderr == ""
        assert "reference = three_step" in stdout

    def test_unknown_method_exits_2(self, capsys):
        code, _, stderr = run(
            capsys, "compare", "--duration", "0.4", "--methods", "three_step,bogus"
        )
        assert code == 2
        assert "unknown method" in stderr


class TestSynthCommand:
    def test_am_tone_wav_sample_count(self, capsys, tmp_path):
        out = tmp_path / "am.wav"
        code, stdout, stderr = run(capsys, "synth", "-o", str(out), "--duration", "2", "--rate", "44100")
        assert code == 0
        assert stderr == ""
        assert read_wav(out).n_samples == 88200
        truth = read_wav(tmp_path / "am_truth.wav")
        assert truth.n_samples == 88200

    def test_depth_zero_constant_truth_csv(self, capsys, tmp_path):
        out = tmp_path / "flat.csv"
        code, _, _ = run(
            capsys, "synth", "-o", str(out), "--depth", "0", "--duration", "0.01", "--rate", "8000"
        )
        assert code == 0
        table = np.genfromtxt(out, delimiter=",", names=True)
        np.testing.assert_allclose(table["truth"], 1.0, atol=1e-8)

    def test_dotted_output_keeps_its_stem(self, capsys, tmp_path):
        code, stdout, _ = run(capsys, "synth", "-o", str(tmp_path / "run.v2"), "--duration", "0.1")
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.v2.wav", "run.v2_truth.wav"]
        assert stdout.rstrip().endswith("wrote %s, %s" % (tmp_path / "run.v2.wav", tmp_path / "run.v2_truth.wav"))

    @pytest.mark.parametrize(
        "output, extra, written",
        [
            ("Syn.WAV", [], ["Syn.WAV", "Syn_truth.wav"]),
            ("Syn.CSV", [], ["Syn.CSV"]),
            ("Syn.Csv", ["--format", "both"], ["Syn.wav", "Syn_truth.wav", "Syn.Csv"]),
        ],
        ids=["upper-wav", "upper-csv", "mixed-csv-both"],
    )
    def test_output_keeps_its_suffix_as_written(self, capsys, tmp_path, output, extra, written):
        code, stdout, _ = run(capsys, "synth", "-o", str(tmp_path / output), "--duration", "0.1", *extra)
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(written)
        assert stdout.rstrip().endswith("wrote " + ", ".join(str(tmp_path / name) for name in written))

    @pytest.mark.parametrize(
        "argv",
        [
            ["--rate", "0.4", "--duration", "100", "--carrier", "0.1", "--modulator", "0.01"],
            ["--rate", "1e10", "--duration", "1e-9", "--carrier", "1e6", "--modulator", "1"],
        ],
        ids=["rate-rounds-to-0", "byte-rate-over-32-bits"],
    )
    def test_rate_a_wav_header_cannot_hold_exits_2(self, capsys, tmp_path, argv):
        code, stdout, stderr = run(capsys, "synth", "-o", str(tmp_path / "x.wav"), *argv)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("ampenv: sample rate")
        assert stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_carrier_at_nyquist_exits_2(self, capsys, tmp_path):
        code, _, stderr = run(
            capsys, "synth", "-o", str(tmp_path / "x.wav"), "--carrier", "30000", "--rate", "44100"
        )
        assert code == 2
        assert "Nyquist" in stderr


class TestBenchCommand:
    def test_pass_within_budget(self, capsys):
        code, stdout, stderr = run(capsys, "bench", "--duration", "0.2")
        assert code == 0
        assert stderr == ""
        assert "PASS" in stdout
        assert "bunch=50 cutoff=150 Hz order=4" in stdout

    def test_help_shows_defaults(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--help"])
        assert excinfo.value.code == 0
        help_text = capsys.readouterr().out
        for shown in (
            "signal duration s (default 1.5)",
            "sample rate Hz (default 44100)",
            "runtime budget in ms (default 500)",
        ):
            assert shown in help_text

    def test_forced_fail_exits_3(self, capsys):
        code, stdout, _ = run(capsys, "bench", "--duration", "0.2", "--budget-ms", "0.001")
        assert code == 3
        assert "FAIL" in stdout

    @pytest.mark.parametrize("budget", ["nan", "0", "-5", "inf"])
    def test_budget_not_positive_and_finite_exits_2(self, capsys, budget):
        code, stdout, stderr = run(capsys, "bench", "--duration", "0.2", "--budget-ms", budget)
        assert (code, stdout) == (2, "")
        assert stderr.startswith("ampenv: budget must be a positive number of ms")
        assert stderr.count("\n") == 1


def test_out_of_memory_exits_1(capsys, tmp_path, monkeypatch):
    # 4.4e16 samples: numpy refuses the request before touching memory.
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run(capsys, "synth", "-o", "x.wav", "--duration", "1e12")
    assert (code, stdout) == (1, "")
    assert stderr.startswith("ampenv: out of memory: ")
    assert stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "-o", "x.wav", "--rate", "inf"],
        ["synth", "-o", "x.wav", "--duration", "inf"],
        ["compare", "--duration", "inf"],
        ["bench", "--duration", "inf"],
        ["bench", "--rate", "nan"],
    ],
    ids=["synth-rate-inf", "synth-duration-inf", "compare-duration-inf", "bench-duration-inf", "bench-rate-nan"],
)
def test_non_finite_synthetic_value_exits_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("ampenv: ")
    assert stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--duration", "1e-6"],
        ["synth", "-o", "x.wav", "--duration", "1e300", "--rate", "1e10"],
        ["bench", "--duration", "1e300", "--rate", "1e10"],
    ],
    ids=["bench-no-samples", "synth-too-many-samples", "bench-too-many-samples"],
)
def test_unrepresentable_sample_count_exits_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("ampenv: duration too ")
    assert stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


class TestFilterDumpCommand:
    def test_sections_and_response(self, capsys, tmp_path):
        out = tmp_path / "resp.csv"
        code, stdout, stderr = run(
            capsys, "filter-dump", "--cutoff", "300", "--order", "4", "--rate", "44100", "-o", str(out)
        )
        assert code == 0
        assert stderr == ""
        section_lines = [l for l in stdout.split("\n") if l.startswith("section ")]
        assert len(section_lines) == 2  # order 4 -> 2 biquads
        assert "b0=" in section_lines[0]

        table = np.genfromtxt(out, delimiter=",", names=True)
        at_dc = table["magnitude_db"][table["freq_hz"] == 0.0][0]
        assert abs(at_dc) < 1e-9
        at_cut = table["magnitude_db"][table["freq_hz"] == 300.0][0]
        assert at_cut == pytest.approx(-3.0103, abs=0.01)

    def test_stdout_table_when_no_output(self, capsys):
        code, stdout, _ = run(capsys, "filter-dump", "--cutoff", "1000", "--points", "16")
        assert code == 0
        assert "freq_hz,magnitude_db,phase_deg" in stdout

    def test_cutoff_above_nyquist_exits_2(self, capsys):
        code, _, stderr = run(capsys, "filter-dump", "--cutoff", "30000", "--rate", "44100")
        assert code == 2
        assert "cutoff above Nyquist" in stderr

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cutoff", ["150", "1000"])
    def test_order_whose_gain_overflows_exits_2_with_one_line(self, capsys, cutoff):
        code, stdout, stderr = run(capsys, "filter-dump", "--cutoff", cutoff, "--order", "100")
        assert (code, stdout) == (2, "")
        assert stderr.startswith("ampenv: order not realisable in float64") and stderr.count("\n") == 1

    @pytest.mark.parametrize("points", ["-3", "0"])
    def test_points_not_positive_exits_2(self, capsys, points):
        code, stdout, stderr = run(capsys, "filter-dump", "--cutoff", "300", "--points", points)
        assert (code, stdout) == (2, "")
        assert stderr == "ampenv: points must be a positive integer, got %s\n" % points

    def test_default_rate_is_the_synthetic_default(self, monkeypatch):
        monkeypatch.setattr(SyntheticSpec, "sample_rate_hz", 48000.0)
        assert cli.build_parser().parse_args(["filter-dump", "--cutoff", "300"]).rate == 48000.0


@pytest.mark.parametrize(
    "argv",
    [
        ["envelope", "tone.wav", "--bunch", "abc"],
        ["synth", "--duration", "1"],
        [],
        ["nope"],
        ["compare", "--with-hilbert"],
    ],
    ids=["bad-int", "missing-required-option", "no-command", "unknown-command", "unknown-option"],
)
def test_malformed_command_line_is_one_line_exit_2(capsys, tone_wav, monkeypatch, argv):
    # argparse's errors end in main's handler, like every other validation error.
    monkeypatch.chdir(tone_wav.parent)
    code, stdout, stderr = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert stderr.startswith("ampenv: ")
    assert stderr.count("\n") == 1


NO_FILE_OUTPUTS = pytest.mark.parametrize(
    "output",
    ["", ".", "..", "outdir/", "outdir/.", "outdir/.."],
    ids=["empty", "dot", "dotdot", "slash", "slash-dot", "slash-dotdot"],
)


COMMANDS_WITH_OUTPUT = {
    "envelope": ["envelope", "tone.wav"],
    "synth": ["synth", "--duration", "0.1"],
    "compare": ["compare", "--duration", "0.1"],
    "filter-dump": ["filter-dump", "--cutoff", "300"],
}


@NO_FILE_OUTPUTS
@pytest.mark.parametrize("command", sorted(COMMANDS_WITH_OUTPUT))
def test_output_that_names_no_file_is_one_line_exit_2(capsys, tone_wav, monkeypatch, command, output):
    # Not the default name, a file named after the directory, stdout, or a traceback.
    monkeypatch.chdir(tone_wav.parent)
    (tone_wav.parent / "outdir").mkdir()
    code, stdout, stderr = run(capsys, *COMMANDS_WITH_OUTPUT[command], "-o", output)
    assert (code, stdout, stderr) == (2, "", "ampenv: output path %r names no file\n" % output)
    assert sorted(p.name for p in tone_wav.parent.rglob("*")) == ["outdir", "tone.wav"]


@NO_FILE_OUTPUTS
@pytest.mark.parametrize(
    "argv",
    [
        ["envelope", "missing.wav"],
        ["synth", "--duration", "1e12"],
        ["compare", "missing.wav"],
        ["filter-dump", "--cutoff", "300", "--points", "-3"],
    ],
    ids=["missing-input", "input-too-long", "compare-missing-input", "filter-dump-bad-points"],
)
def test_output_is_checked_before_the_input(capsys, tmp_path, monkeypatch, argv, output):
    # Without the -o, each of these fails in its own way: no such file, out
    # of memory, no such file, and a bad --points.
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run(capsys, *argv, "-o", output)
    assert (code, stdout, stderr) == (2, "", "ampenv: output path %r names no file\n" % output)


def test_envelope_of_an_empty_input_path_is_a_missing_file(capsys, tmp_path, monkeypatch):
    # Its default output name is "_envelope"; the read fails first.
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run(capsys, "envelope", "")
    assert (code, stdout) == (1, "")
    assert stderr.startswith("ampenv: ") and stderr.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_calls_in_one_process_are_independent(capsys, tone_wav, tmp_path):
    # main parses with one parser per process; each call must still behave
    # as if it were the only one, defaults included.
    def calls(out):
        return [
            ["synth", "-o", str(out / "multi.wav"), "--kind", "multi_carrier_am", "--carrier", "300", "900", "--duration", "0.1"],
            ["envelope", str(tone_wav), "--preset", "piano", "--bunch", "20", "--channel", "0", "-o", str(out / "piano.csv")],
            ["synth", "-o", str(out / "plain.wav"), "--duration", "0.1"],
            ["envelope", str(tone_wav), "-o", str(out / "plain.csv")],
            ["compare", "--methods", "three_step,follower,rms,hilbert", "--rms-window", "30", "--duration", "0.2"],
            ["compare", "--duration", "0.2"],
            ["synth", "-o", str(out / "plain_again.wav"), "--duration", "0.1"],
        ]

    together, alone = tmp_path / "together", tmp_path / "alone"
    together.mkdir()
    alone.mkdir()
    outputs = []
    for argv in calls(together):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    for argv, output in zip(calls(alone), outputs):
        args = cli.build_parser().parse_args(argv)
        assert args.func(args) == 0
        stdout = capsys.readouterr().out
        if argv[0] == "compare":  # the table's runtimes differ from run to run
            assert [line.split()[:2] for line in stdout.splitlines()] == [line.split()[:2] for line in output.splitlines()]
    assert sorted(p.name for p in together.iterdir()) == sorted(p.name for p in alone.iterdir())
    for path in together.iterdir():
        assert path.read_bytes() == (alone / path.name).read_bytes()
    # A default used a second time is still the default.
    assert (together / "plain.wav").read_bytes() == (together / "plain_again.wav").read_bytes()
    assert cli._parser() is cli._parser()

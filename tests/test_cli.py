import struct

import numpy as np
import pytest

from ampenv import Signal, read_wav, write_wav
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

    def test_default_output_name(self, capsys, tone_wav):
        code, stdout, _ = run(capsys, "envelope", str(tone_wav))
        assert code == 0
        expected = tone_wav.with_name("tone_envelope.csv")
        assert expected.exists()
        assert str(expected) in stdout

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

    def test_cutoff_above_nyquist_exits_2(self, capsys, tone_wav, tmp_path):
        code, _, stderr = run(
            capsys, "envelope", str(tone_wav), "-o", str(tmp_path / "x.csv"), "--cutoff", "30000"
        )
        assert code == 2
        assert "cutoff above Nyquist" in stderr


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
            capsys, "compare", "-o", str(out), "--duration", "0.4", "--with-hilbert"
        )
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 5

    def test_report_labels(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code, _, _ = run(capsys, "compare", "-o", str(out), "--duration", "0.4", "--with-hilbert")
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

import struct

import numpy as np
import pytest

from ampenv import Signal, WavFormatError, read_wav, to_mono, write_csv, write_wav


def pcm16_wav_bytes(samples, rate=44100, channels=1):
    """Hand-assembled canonical 16-bit PCM file (byte-layout oracle)."""
    payload = struct.pack("<%dh" % len(samples), *samples)
    return (
        b"RIFF"
        + struct.pack("<I", 36 + len(payload))
        + b"WAVE"
        + b"fmt "
        + struct.pack("<IHHIIHH", 16, 1, channels, rate, rate * 2 * channels, 2 * channels, 16)
        + b"data"
        + struct.pack("<I", len(payload))
        + payload
    )


def float32_wav_bytes(samples, rate=44100):
    """Hand-assembled 32-bit IEEE float mono file."""
    payload = struct.pack("<%df" % len(samples), *samples)
    return (
        b"RIFF"
        + struct.pack("<I", 36 + len(payload))
        + b"WAVE"
        + b"fmt "
        + struct.pack("<IHHIIHH", 16, 3, 1, rate, rate * 4, 4, 32)
        + b"data"
        + struct.pack("<I", len(payload))
        + payload
    )


class TestReadWav:
    def test_known_16bit_samples(self, tmp_path):
        path = tmp_path / "known.wav"
        path.write_bytes(pcm16_wav_bytes([0, 16384, -32768]))
        audio = read_wav(path)
        assert audio.source_format == "pcm16"
        assert audio.sample_rate_hz == 44100.0
        assert audio.n_channels == 1
        np.testing.assert_array_equal(audio.channels[0].samples, [0.0, 0.5, -1.0])

    def test_stereo_deinterleave(self, tmp_path):
        path = tmp_path / "stereo.wav"
        # interleaved L/R frames: L = [100, 300], R = [200, 400]
        path.write_bytes(pcm16_wav_bytes([100, 200, 300, 400], channels=2))
        audio = read_wav(path)
        assert audio.n_channels == 2
        assert audio.n_samples == 2
        np.testing.assert_allclose(audio.channels[0].samples * 32768.0, [100.0, 300.0])
        np.testing.assert_allclose(audio.channels[1].samples * 32768.0, [200.0, 400.0])

    def test_skips_unknown_chunks(self, tmp_path):
        payload = struct.pack("<3h", 0, 16384, -32768)
        junk = b"LIST" + struct.pack("<I", 5) + b"junk?" + b"\x00"  # odd size, padded
        body = (
            b"WAVE"
            + b"fmt "
            + struct.pack("<IHHIIHH", 16, 1, 1, 44100, 88200, 2, 16)
            + junk
            + b"data"
            + struct.pack("<I", len(payload))
            + payload
        )
        path = tmp_path / "chunky.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        audio = read_wav(path)
        np.testing.assert_array_equal(audio.channels[0].samples, [0.0, 0.5, -1.0])

    def test_24bit_sign_extension(self, tmp_path):
        frames = b"".join(
            struct.pack("<i", v)[:3]  # low three little-endian bytes
            for v in (0, 1, -1, 8388607, -8388608)
        )
        body = (
            b"WAVE"
            + b"fmt "
            + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 24000, 3, 24)
            + b"data"
            + struct.pack("<I", len(frames))
            + frames
        )
        path = tmp_path / "p24.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        audio = read_wav(path)
        assert audio.source_format == "pcm24"
        np.testing.assert_allclose(
            audio.channels[0].samples * 8388608.0, [0.0, 1.0, -1.0, 8388607.0, -8388608.0]
        )

    def test_32bit_pcm(self, tmp_path):
        frames = struct.pack("<3i", 0, 2**29, -(2**31))
        body = (
            b"WAVE"
            + b"fmt "
            + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 32000, 4, 32)
            + b"data"
            + struct.pack("<I", len(frames))
            + frames
        )
        path = tmp_path / "p32.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        audio = read_wav(path)
        assert audio.source_format == "pcm32"
        np.testing.assert_array_equal(audio.channels[0].samples, [0.0, 0.25, -1.0])

    def test_not_riff(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"this is not audio at all")
        with pytest.raises(WavFormatError, match="not a WAV file"):
            read_wav(path)

    def test_riff_but_not_wave(self, tmp_path):
        path = tmp_path / "avi.bin"
        path.write_bytes(b"RIFF" + struct.pack("<I", 4) + b"AVI ")
        with pytest.raises(WavFormatError, match="not a WAV file"):
            read_wav(path)

    def test_mu_law_rejected(self, tmp_path):
        body = (
            b"WAVE"
            + b"fmt "
            + struct.pack("<IHHIIHH", 16, 7, 1, 8000, 8000, 1, 8)
            + b"data"
            + struct.pack("<I", 0)
        )
        path = tmp_path / "ulaw.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(WavFormatError, match="unsupported codec mu-law"):
            read_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        data = pcm16_wav_bytes([0, 16384, -32768])
        path = tmp_path / "cut.wav"
        path.write_bytes(data[:-4])  # drop bytes the header still claims
        with pytest.raises(WavFormatError, match="truncated file"):
            read_wav(path)

    def test_data_before_fmt_rejected(self, tmp_path):
        body = b"WAVE" + b"data" + struct.pack("<I", 2) + b"\x00\x00"
        path = tmp_path / "nofmt.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(WavFormatError, match="data before fmt"):
            read_wav(path)

    def test_8bit_rejected(self, tmp_path):
        body = (
            b"WAVE"
            + b"fmt "
            + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 8000, 1, 8)
            + b"data"
            + struct.pack("<I", 0)
        )
        path = tmp_path / "p8.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(WavFormatError, match="unsupported bit depth"):
            read_wav(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected(self, tmp_path, bad):
        path = tmp_path / "bad.wav"
        path.write_bytes(float32_wav_bytes([0.0, 0.5, bad, -0.5]))
        with pytest.raises(WavFormatError, match="non-finite sample"):
            read_wav(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_wav(tmp_path / "nope.wav")


class TestWriteWav:
    def test_pcm16_round_trip_within_quantization(self, tmp_path, rng):
        x = rng.uniform(-1.0, 1.0, 1000)
        x[:2] = (-1.0, 1.0)  # include the extremes
        sig = Signal(x, 22050.0)
        path = tmp_path / "rt.wav"
        assert write_wav(path, sig, "pcm16") == 0
        back = read_wav(path)
        assert back.sample_rate_hz == 22050.0
        assert np.max(np.abs(back.channels[0].samples - x)) <= 1.0 / 32768.0

    def test_float32_round_trip_exact(self, tmp_path, rng):
        x = rng.standard_normal(500).astype(np.float32).astype(np.float64)
        x = np.clip(x, -1.0, 1.0)
        sig = Signal(x, 48000.0)
        path = tmp_path / "f32.wav"
        write_wav(path, sig, "float32")
        back = read_wav(path)
        assert back.source_format == "float32"
        np.testing.assert_array_equal(back.channels[0].samples, x)

    def test_zero_length_file(self, tmp_path):
        path = tmp_path / "empty.wav"
        write_wav(path, Signal([], 44100.0))
        back = read_wav(path)
        assert back.n_samples == 0

    def test_clipping_count(self, tmp_path):
        sig = Signal([0.5, 1.5, -2.0, -0.25], 8000.0)
        path = tmp_path / "clip.wav"
        assert write_wav(path, sig) == 2
        back = read_wav(path).channels[0].samples
        assert back[1] == pytest.approx(1.0, abs=1.0 / 32768.0)
        assert back[2] == -1.0

    def test_unsupported_format(self, tmp_path):
        with pytest.raises(ValueError, match="unsupported write format"):
            write_wav(tmp_path / "x.wav", Signal([0.0], 8000.0), "pcm8")


class TestWriteCsv:
    def test_layout_and_times(self, tmp_path):
        a = Signal([0.0, 0.5, 1.0], 10.0)
        b = Signal([1.0, -1.0, 0.25], 10.0)
        path = tmp_path / "two.csv"
        write_csv(path, {"alpha": a, "beta": b})
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 4
        assert lines[0] == "time_s,alpha,beta"
        times = [float(line.split(",")[0]) for line in lines[1:]]
        assert times == [0.0, 0.1, 0.2]

    def test_parse_back_within_1e8(self, tmp_path, rng):
        x = rng.standard_normal(200)
        y = rng.standard_normal(200)
        path = tmp_path / "rt.csv"
        write_csv(path, {"x": Signal(x, 44100.0), "y": Signal(y, 44100.0)})
        table = np.genfromtxt(path, delimiter=",", names=True)
        np.testing.assert_allclose(table["x"], x, atol=1e-8, rtol=1e-8)
        np.testing.assert_allclose(table["y"], y, atol=1e-8, rtol=1e-8)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no signals"):
            write_csv(tmp_path / "none.csv", {})

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="signal length mismatch"):
            write_csv(
                tmp_path / "bad.csv",
                {"a": Signal([1.0, 2.0], 10.0), "b": Signal([1.0], 10.0)},
            )

    def test_rate_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="inconsistent sample rate"):
            write_csv(
                tmp_path / "bad.csv",
                {"a": Signal([1.0], 10.0), "b": Signal([1.0], 20.0)},
            )


class TestToMono:
    def read_stereo(self, tmp_path, left, right):
        interleaved = [v for pair in zip(left, right) for v in pair]
        path = tmp_path / "st.wav"
        path.write_bytes(pcm16_wav_bytes(interleaved, channels=2))
        return read_wav(path)

    def test_mono_mean_is_identity(self, tmp_path):
        path = tmp_path / "mono.wav"
        path.write_bytes(pcm16_wav_bytes([100, -100, 3000]))
        audio = read_wav(path)
        np.testing.assert_array_equal(
            to_mono(audio, "mean").samples, audio.channels[0].samples
        )

    def test_opposite_channels_cancel(self, tmp_path):
        audio = self.read_stereo(tmp_path, [5000, -700], [-5000, 700])
        np.testing.assert_array_equal(to_mono(audio, "mean").samples, [0.0, 0.0])

    def test_channel_select(self, tmp_path):
        audio = self.read_stereo(tmp_path, [1, 2], [3, 4])
        np.testing.assert_array_equal(
            to_mono(audio, 1).samples, audio.channels[1].samples
        )
        np.testing.assert_array_equal(
            to_mono(audio, "1").samples, audio.channels[1].samples
        )

    def test_channel_out_of_range(self, tmp_path):
        audio = self.read_stereo(tmp_path, [1], [2])
        with pytest.raises(ValueError, match="channel index out of range"):
            to_mono(audio, 2)

    def test_unknown_mode(self, tmp_path):
        audio = self.read_stereo(tmp_path, [1], [2])
        with pytest.raises(ValueError, match="unknown mono mode"):
            to_mono(audio, "loudest")

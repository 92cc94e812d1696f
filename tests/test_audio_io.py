import struct
import uuid
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def pcm24_wav_bytes(samples, rate=44100):
    """Hand-assembled 24-bit PCM mono file."""
    payload = b"".join(struct.pack("<i", v)[:3] for v in samples)  # low three little-endian bytes
    return (
        b"RIFF"
        + struct.pack("<I", 36 + len(payload))
        + b"WAVE"
        + b"fmt "
        + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 3, 3, 24)
        + b"data"
        + struct.pack("<I", len(payload))
        + payload
    )


def extensible_wav_bytes(samples, subformat, bits, code, rate=44100):
    """Hand-assembled WAVE_FORMAT_EXTENSIBLE mono file with the given SubFormat GUID bytes."""
    payload = struct.pack("<%d%s" % (len(samples), code), *samples)
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, rate, rate * bits // 8, bits // 8, bits, 22, bits, 4)
    fmt += subformat
    return (
        b"RIFF"
        + struct.pack("<I", 20 + len(fmt) + len(payload))
        + b"WAVE"
        + b"fmt "
        + struct.pack("<I", len(fmt))
        + fmt
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

    @pytest.mark.parametrize(
        "tag, bits, code, values, source",
        [
            (1, 16, "h", [0, 16384, -32768], "pcm16"),
            (3, 32, "f", [0.0, 0.5, -1.0], "float32"),
        ],
    )
    def test_extensible_accepted(self, tmp_path, tag, bits, code, values, source):
        guid = uuid.UUID("%08x-0000-0010-8000-00aa00389b71" % tag).bytes_le
        path = tmp_path / "ext.wav"
        path.write_bytes(extensible_wav_bytes(values, guid, bits, code))
        audio = read_wav(path)
        assert audio.source_format == source
        np.testing.assert_array_equal(audio.channels[0].samples, [0.0, 0.5, -1.0])

    def test_extensible_foreign_guid_rejected(self, tmp_path):
        guid = b"\x01\x00" + b"\xff" * 14  # PCM tag, not the standard GUID base
        path = tmp_path / "foreign.wav"
        path.write_bytes(extensible_wav_bytes([0, 16384], guid, 16, "h"))
        with pytest.raises(WavFormatError, match="unsupported codec"):
            read_wav(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_wav(tmp_path / "nope.wav")


# Small valid files that the property tests truncate and overwrite byte by byte.
FUZZ_BASES = {
    "pcm16": pcm16_wav_bytes([0, 16384, -32768, 32767, -1, 7]),
    "pcm24": pcm24_wav_bytes([0, 1, -1, 8388607, -8388608, 12345]),
    "float32": float32_wav_bytes([0.0, 0.5, -1.0, 1.0, -0.25, 1e-3]),
}
PROPERTY_SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestReadWavProperties:
    @PROPERTY_SETTINGS
    @given(
        base=st.sampled_from(sorted(FUZZ_BASES)),
        keep=st.integers(0, 80),
        edits=st.lists(st.tuples(st.integers(0, 79), st.integers(0, 255)), max_size=4),
    )
    def test_damaged_file_raises_wav_error_or_decodes_finite(self, tmp_path, base, keep, edits):
        data = bytearray(FUZZ_BASES[base])
        for pos, value in edits:
            data[pos % len(data)] = value
        path = tmp_path / "damaged.wav"
        path.write_bytes(bytes(data[:keep]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                audio = read_wav(path)
            except WavFormatError:
                return
        for channel in audio.channels:
            assert np.isfinite(channel.samples).all()

    @PROPERTY_SETTINGS
    @given(
        n=st.integers(0, 3000),
        rate=st.integers(1, 0xFFFFFFFF // 4),
        fmt=st.sampled_from(["pcm16", "float32"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_write_read_round_trip(self, tmp_path, n, rate, fmt, seed):
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        path = tmp_path / "round_trip.wav"
        write_wav(path, Signal(x, float(rate)), fmt)
        back = read_wav(path)
        assert back.source_format == fmt
        assert back.sample_rate_hz == rate
        if fmt == "pcm16":
            expected = np.clip(np.rint(x * 32768.0), -32768, 32767) / 32768.0
        else:
            expected = x.astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(back.channels[0].samples, expected)


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

    @pytest.mark.parametrize(
        "fmt, highest", [("pcm16", 0xFFFFFFFF // 2), ("float32", 0xFFFFFFFF // 4)]
    )
    def test_rate_limits_of_the_header(self, tmp_path, fmt, highest):
        path = tmp_path / "x.wav"
        for rate in (0.4, highest + 1.0):
            with pytest.raises(ValueError, match="does not fit a %s WAV header" % fmt):
                write_wav(path, Signal([0.0], rate), fmt)
            assert not path.exists()
        for rate, stored in ((0.6, 1.0), (float(highest), float(highest))):
            write_wav(path, Signal([0.0], rate), fmt)
            assert read_wav(path).sample_rate_hz == stored


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

    def test_byte_exact(self, tmp_path):
        path = tmp_path / "exact.csv"
        write_csv(path, [("a", Signal([0.0, 1.0 / 3.0, -2.5e-7], 3.0)), ("b", Signal([1e10, -0.0, 123456789.123], 3.0))])
        assert path.read_bytes() == (
            b"time_s,a,b\n"
            b"0,0,1e+10\n"
            b"0.333333333,0.333333333,-0\n"
            b"0.666666667,-2.5e-07,123456789\n"
        )

    def test_matches_per_value_formatting_across_blocks(self, tmp_path, rng):
        x = rng.standard_normal(2 * 4096 + 5)
        path = tmp_path / "long.csv"
        write_csv(path, {"x": Signal(x, 44100.0), "y": Signal(-x, 44100.0)})
        rows = ["%.9g,%.9g,%.9g\n" % (i / 44100.0, v, -v) for i, v in enumerate(x.tolist())]
        assert path.read_text() == "time_s,x,y\n" + "".join(rows)

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

    def test_mono_mean_makes_no_copy(self, tmp_path):
        path = tmp_path / "mono.wav"
        path.write_bytes(pcm16_wav_bytes([100, -100, 3000]))
        audio = read_wav(path)
        mono = to_mono(audio, "mean")
        assert np.shares_memory(mono.samples, audio.channels[0].samples)
        np.testing.assert_array_equal(mono.samples, [100 / 32768, -100 / 32768, 3000 / 32768])

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

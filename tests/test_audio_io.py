import struct
import tracemalloc
import uuid
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import decode_frames, wav_bytes

from ampenv import Signal, WavFormatError, read_wav, to_mono, write_csv, write_wav
from ampenv.audio_io import _WAV_BLOCK, AudioFile


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

    @pytest.mark.parametrize("size", [0, 0xFFFFFFFF])
    @pytest.mark.parametrize("tail", [b"", b"\x01"])
    def test_streamed_data_size_runs_to_the_end(self, tmp_path, size, tail):
        # A streaming writer leaves the data size 0 or 0xFFFFFFFF; the
        # samples are the whole frames up to the end of the file.
        samples = [0, 16384, -32768, 5]
        data = bytearray(pcm16_wav_bytes(samples) + tail)
        struct.pack_into("<I", data, 40, size)
        path = tmp_path / "streamed.wav"
        path.write_bytes(bytes(data))
        audio = read_wav(path)
        np.testing.assert_array_equal(audio.channels[0].samples, np.array(samples) / 32768.0)

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

    def test_extensible_fmt_chunk_under_40_bytes_rejected(self, tmp_path):
        path = tmp_path / "short_ext.wav"
        path.write_bytes(extensible_wav_bytes([0, 16384], b"", 16, "h"))  # a 24-byte fmt chunk
        with pytest.raises(WavFormatError, match="extensible fmt chunk too small"):
            read_wav(path)

    @pytest.mark.parametrize(
        "channels, rate, message", [(0, 44100, "zero channels declared"), (1, 0, "zero sample rate declared")]
    )
    def test_zero_channels_or_rate_rejected(self, tmp_path, channels, rate, message):
        path = tmp_path / "zero.wav"
        path.write_bytes(pcm16_wav_bytes([0, 16384], rate=rate, channels=channels))
        with pytest.raises(WavFormatError, match=message):
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


ULP_ABOVE_ONE = np.nextafter(1.0, 2.0)
# Half-LSB ties round half to even: k + 0.5 for even and odd k, both signs.
HALF_LSB_TIES = [(k + 0.5) / 32768.0 for k in (0, 1, 2, 3, 32766, -1, -2, -32767)]
EDGE_VALUES = [1.0, -1.0, ULP_ABOVE_ONE, -ULP_ABOVE_ONE, *HALF_LSB_TIES, 1.7e308, -1.7e308, 5e-324, -0.0, 32767.5 / 32768.0]


class TestWriteWavBytes:
    """write_wav's blocked encoder writes the bytes of the whole-array one."""

    @pytest.mark.parametrize("fmt", ["pcm16", "float32"])
    def test_edge_values(self, tmp_path, fmt):
        path = tmp_path / "edges.wav"
        clipped = write_wav(path, Signal(EDGE_VALUES, 8000.0), fmt)
        assert path.read_bytes() == wav_bytes(EDGE_VALUES, 8000, fmt)
        assert clipped == 4  # one ulp beyond +-1, and +-1.7e308

    @pytest.mark.parametrize("fmt", ["pcm16", "float32"])
    @pytest.mark.parametrize("n", [0, 1, _WAV_BLOCK - 1, _WAV_BLOCK, _WAV_BLOCK + 1, 2 * _WAV_BLOCK + 3])
    def test_lengths_around_the_block(self, tmp_path, rng, fmt, n):
        x = 1.2 * rng.uniform(-1.0, 1.0, n)
        x[::7] = rng.integers(-32769, 32769, x[::7].size) / 32768.0 + 0.5 / 32768.0  # ties, and +-1 beyond
        path = tmp_path / "x.wav"
        clipped = write_wav(path, Signal(x, 44100.0), fmt)
        assert path.read_bytes() == wav_bytes(x, 44100, fmt)
        assert clipped == np.count_nonzero(np.abs(x) > 1.0)

    def test_reversed_view_input(self, tmp_path, rng):
        # The zero-phase filter's output is a reversed view of its buffer.
        x = rng.uniform(-1.1, 1.1, _WAV_BLOCK + 5)
        sig = Signal._wrap(x[::-1], 44100.0)
        path = tmp_path / "rev.wav"
        write_wav(path, sig)
        assert path.read_bytes() == wav_bytes(x[::-1], 44100, "pcm16")


def _frames_bytes(frames: np.ndarray, fmt: str) -> bytes:
    """(frames, channels) of integer codes (or float32 values) as WAV sample bytes."""
    if fmt == "pcm24":
        return frames.astype("<i4").reshape(-1, 1).view(np.uint8)[:, :3].tobytes()
    return frames.astype({"pcm16": "<i2", "pcm32": "<i4", "float32": "<f4"}[fmt]).tobytes()


def _wav_file(fmt: str, channels: int, sample_bytes: bytes, rate=44100, data_size=None) -> bytes:
    tag, bits = (3, 32) if fmt == "float32" else (1, int(fmt[3:]))
    align = channels * bits // 8
    size = len(sample_bytes) if data_size is None else data_size
    return (
        b"RIFF" + struct.pack("<I", 36 + len(sample_bytes)) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, tag, channels, rate, rate * align, align, bits)
        + b"data" + struct.pack("<I", size) + sample_bytes
    )


class TestReadWavDecode:
    """read_wav decodes straight from the file's bytes, bit-identical to a slice-and-cast decode."""

    FULL_SCALE = {"pcm16": 1 << 15, "pcm24": 1 << 23, "pcm32": 1 << 31}

    def frames(self, rng, fmt, n, channels):
        if fmt == "float32":
            return rng.uniform(-1.5, 1.5, (n, channels)).astype(np.float32)
        top = self.FULL_SCALE[fmt]
        codes = rng.integers(-top, top, (n, channels))
        codes[:2] = [[-top], [top - 1]]  # both ends of the range
        return codes

    @pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "pcm32", "float32"])
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("tail", [0, 1, 5], ids=["whole", "1-byte-tail", "5-byte-tail"])
    def test_matches_slice_decode(self, tmp_path, rng, fmt, channels, tail):
        sample_bytes = _frames_bytes(self.frames(rng, fmt, 301, channels), fmt) + bytes(range(1, 1 + tail))
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_file(fmt, channels, sample_bytes))
        audio = read_wav(path)
        expected = decode_frames(sample_bytes, fmt, channels)
        assert audio.source_format == fmt
        assert audio.n_samples == len(expected) >= 301
        assert [ch.samples.tobytes() for ch in audio.channels] == [expected[:, c].tobytes() for c in range(channels)]

    @pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "pcm32", "float32"])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_streamed_data_size(self, tmp_path, rng, fmt, channels):
        sample_bytes = _frames_bytes(self.frames(rng, fmt, 77, channels), fmt) + b"\x07"
        path = tmp_path / "streamed.wav"
        path.write_bytes(_wav_file(fmt, channels, sample_bytes, data_size=0xFFFFFFFF))
        audio = read_wav(path)
        expected = decode_frames(sample_bytes, fmt, channels)
        assert [ch.samples.tobytes() for ch in audio.channels] == [expected[:, c].tobytes() for c in range(channels)]



def _traced_peak(fn, *args) -> int:
    """Peak bytes traced (NumPy buffers included) while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOnePassMemory:
    """No full-length temporaries: a slice copy, a per-channel copy or a float64 payload would each exceed these."""

    N = 1 << 20
    SLACK = 1 << 19  # ufunc cast buffers, file object, header parsing

    def test_read_holds_the_file_and_one_float64_buffer(self, tmp_path):
        path = tmp_path / "mono.wav"
        write_wav(path, Signal(np.sin(np.arange(self.N) * 0.01), 44100.0))
        # and the boolean temporary of Signal's finiteness check
        assert _traced_peak(read_wav, path) <= path.stat().st_size + 9 * self.N + self.SLACK

    @pytest.mark.parametrize("fmt, width", [("pcm16", 2), ("float32", 4)])
    def test_write_holds_the_payload_and_block_buffers(self, tmp_path, fmt, width):
        sig = Signal(np.sin(np.arange(self.N) * 0.01), 44100.0)
        # float32 counts its clips with one full-length boolean temporary at a time
        temporaries = 10 * _WAV_BLOCK if fmt == "pcm16" else self.N
        peak = _traced_peak(write_wav, tmp_path / "out.wav", sig, fmt)
        assert peak <= width * self.N + temporaries + self.SLACK


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

    @pytest.mark.parametrize("name", ["a,b", "a\nb"])
    def test_name_that_would_break_the_header_rejected(self, tmp_path, name):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="invalid signal name"):
            write_csv(path, {name: Signal([1.0], 10.0)})
        assert not path.exists()


class TestAudioFile:
    def test_no_channels_rejected(self):
        with pytest.raises(ValueError, match="at least one channel"):
            AudioFile((), 44100.0, "pcm16")

    def test_channels_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="signal length mismatch across channels"):
            AudioFile((Signal([0.0, 1.0], 44100.0), Signal([0.0], 44100.0)), 44100.0, "pcm16")


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

    @pytest.mark.parametrize("channels", [2, 3, 5])
    def test_mean_has_the_bits_of_the_stacked_mean(self, channels, rng):
        audio = AudioFile(
            tuple(Signal(rng.standard_normal(100_003) * 10.0**k, 44100.0) for k in range(channels)),
            44100.0,
            "float32",
        )
        stacked = np.stack([ch.samples for ch in audio.channels]).mean(axis=0)
        assert to_mono(audio, "mean").samples.tobytes() == stacked.tobytes()

    def test_mean_holds_one_output_buffer(self):
        # The output and the boolean temporary of Signal's finiteness check;
        # a stacked copy of the channels would add 3 * n float64s.
        n = 1 << 18
        audio = AudioFile(tuple(Signal(np.full(n, 0.1 * k), 44100.0) for k in range(3)), 44100.0, "float32")
        assert _traced_peak(to_mono, audio, "mean") <= 9 * n + (1 << 16)

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

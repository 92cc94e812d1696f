"""RIFF/WAVE reading and writing, plus CSV export of time-aligned signals.

Reads uncompressed little-endian PCM (16/24/32-bit) and 32-bit IEEE float,
mono or multichannel, also as WAVE_FORMAT_EXTENSIBLE with the standard
sub-format GUID. Integer samples are normalized to [-1, 1] by 2^(bits-1) on
read; float samples are kept as-is and must be finite (a NaN or infinity
raises WavFormatError). Unknown chunks are skipped (word-aligned), and `fmt `
must appear before `data`. Writing supports mono 16-bit PCM and 32-bit float.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .signals import Signal


class WavFormatError(ValueError):
    """Raised when a file is not a decodable RIFF/WAVE stream."""


_PCM = 1
_IEEE_FLOAT = 3
_EXTENSIBLE = 0xFFFE
# An extensible SubFormat GUID is the 2-byte tag, then these 14 bytes of xxxx0000-0000-0010-8000-00aa00389b71.
_SUBFORMAT_BASE = bytes.fromhex("000000001000800000aa00389b71")
_CSV_BLOCK = 4096  # write_csv rows per tolist() call; bounds the memory its Python floats take
#: The readable sample formats: (codec tag, bits) -> (source name, sample
#: dtype, full scale). 24-bit has no NumPy dtype and is assembled from bytes.
_SAMPLE_FORMATS = {
    (_PCM, 16): ("pcm16", "<i2", 32768.0),
    (_PCM, 24): ("pcm24", None, 8388608.0),
    (_PCM, 32): ("pcm32", "<i4", 2147483648.0),
    (_IEEE_FLOAT, 32): ("float32", "<f4", 1.0),
}
_CODEC_NAMES = {
    0x02: "ADPCM",
    0x06: "a-law",
    0x07: "mu-law",
    0x11: "IMA ADPCM",
    0x55: "MPEG layer 3",
}


@dataclass(frozen=True, eq=False)
class AudioFile:
    """Decoded audio: one Signal per channel, all the same length."""

    channels: tuple[Signal, ...]
    sample_rate_hz: float
    source_format: str

    def __post_init__(self):
        channels = tuple(self.channels)
        if not channels:
            raise ValueError("audio file needs at least one channel")
        length = len(channels[0])
        if any(len(ch) != length for ch in channels):
            raise ValueError("signal length mismatch across channels")
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def n_samples(self) -> int:
        return len(self.channels[0])


def _parse_fmt(buf: bytes, offset: int, size: int, path) -> tuple[int, int, int, int]:
    tag, channels, rate, _byte_rate, _block_align, bits = struct.unpack_from(
        "<HHIIHH", buf, offset
    )
    if tag == _EXTENSIBLE:
        if size < 40:
            raise WavFormatError("truncated file: extensible fmt chunk too small: %s" % path)
        tag = struct.unpack_from("<H", buf, offset + 24)[0]
        if buf[offset + 26 : offset + 40] != _SUBFORMAT_BASE:
            raise WavFormatError("unsupported codec sub-format %s: %s" % (buf[offset + 24 : offset + 40].hex(), path))
    if tag not in (_PCM, _IEEE_FLOAT):
        name = _CODEC_NAMES.get(tag, "0x%04x" % tag)
        raise WavFormatError("unsupported codec %s: %s" % (name, path))
    if channels < 1:
        raise WavFormatError("not a WAV file: zero channels declared: %s" % path)
    if rate == 0:
        raise WavFormatError("not a WAV file: zero sample rate declared: %s" % path)
    if (tag, bits) not in _SAMPLE_FORMATS:
        kind = "float" if tag == _IEEE_FLOAT else "PCM"
        raise WavFormatError("unsupported bit depth: %d-bit %s: %s" % (bits, kind, path))
    return tag, channels, rate, bits


def _decode(raw: bytes, tag: int, channels: int, rate: int, bits: int, path) -> AudioFile:
    source, dtype, scale = _SAMPLE_FORMATS[tag, bits]
    frame = (bits // 8) * channels
    raw = raw[: (len(raw) // frame) * frame]  # drop any partial trailing frame
    if dtype is None:  # 24-bit: assemble little-endian triples and sign-extend
        triples = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        value = triples[:, 0] | (triples[:, 1] << 8) | (triples[:, 2] << 16)
        value = np.where(value & 0x800000, value - 0x1000000, value)
        flat = value.astype(np.float64)
    else:
        samples = np.frombuffer(raw, dtype=dtype)
        # checked before the float64 cast, which warns on a signalling NaN
        if tag == _IEEE_FLOAT and not np.isfinite(samples).all():
            raise WavFormatError("non-finite sample (NaN or inf) in float data: %s" % path)
        flat = samples.astype(np.float64)
    flat /= scale
    frames = flat.reshape(-1, channels)
    sigs = tuple(Signal._wrap(frames[:, c].copy(), float(rate)) for c in range(channels))
    return AudioFile(sigs, float(rate), source)


def read_wav(path) -> AudioFile:
    """Decode a RIFF/WAVE file; PCM is normalized to [-1, 1]."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError("not a WAV file: %s" % path)
    fmt = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        size = struct.unpack_from("<I", data, pos + 4)[0]
        body = pos + 8
        if chunk_id == b"fmt ":
            if size < 16 or body + size > len(data):
                raise WavFormatError("truncated file: bad fmt chunk: %s" % path)
            fmt = _parse_fmt(data, body, size, path)
        elif chunk_id == b"data":
            if fmt is None:
                raise WavFormatError("not a WAV file: data before fmt chunk: %s" % path)
            if body + size > len(data):
                raise WavFormatError(
                    "truncated file: data chunk claims %d bytes, %d available: %s"
                    % (size, len(data) - body, path)
                )
            return _decode(data[body : body + size], *fmt, path)
        pos = body + size + (size & 1)  # chunks are word-aligned
    raise WavFormatError("not a WAV file: no data chunk: %s" % path)


def wav_header_rate(sample_rate: float, fmt: str = "pcm16") -> int:
    """The integer rate a mono ``fmt`` WAV header stores for ``sample_rate``.

    Raises ValueError for an unknown format, or a rate that rounds below
    1 Hz or needs a byte rate over 32 bits.
    """
    if fmt not in ("pcm16", "float32"):
        raise ValueError("unsupported write format: %r (use 'pcm16' or 'float32')" % (fmt,))
    width = 2 if fmt == "pcm16" else 4  # bytes per sample
    rate = int(round(sample_rate))
    if not 1 <= rate <= 0xFFFFFFFF // width:
        raise ValueError("sample rate %g Hz does not fit a %s WAV header" % (sample_rate, fmt))
    return rate


def write_wav(path, s: Signal, fmt: str = "pcm16") -> int:
    """Write a mono WAV file; returns how many samples were clipped to [-1, 1].

    Checks ``wav_header_rate`` before the file is opened.
    """
    rate = wav_header_rate(s.sample_rate, fmt)
    x = s.samples
    clipped = int(np.count_nonzero((x < -1.0) | (x > 1.0)))
    x = np.clip(x, -1.0, 1.0)

    if fmt == "pcm16":
        payload = np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2").tobytes()
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE",
            b"fmt ", 16, _PCM, 1, rate, rate * 2, 2, 16,
            b"data", len(payload),
        )
    else:
        payload = x.astype("<f4").tobytes()
        header = struct.pack(
            "<4sI4s4sIHHIIHHH4sII4sI",
            b"RIFF", 50 + len(payload), b"WAVE",
            b"fmt ", 18, _IEEE_FLOAT, 1, rate, rate * 4, 4, 32, 0,
            b"fact", 4, x.size,
            b"data", len(payload),
        )

    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)
    return clipped


def write_csv(path, signals) -> None:
    """Write time-aligned signals as CSV.

    ``signals`` maps column names to Signals (dict or (name, Signal) pairs);
    all must share length and sample rate. The header is
    ``time_s,<name1>,<name2>,...`` and every value is formatted with 9
    significant digits.
    """
    items = list(signals.items()) if isinstance(signals, dict) else list(signals)
    if not items:
        raise ValueError("no signals to write")
    names = [str(name) for name, _ in items]
    for name in names:
        if "," in name or "\n" in name:
            raise ValueError("invalid signal name: %r" % name)
    sigs = [sig for _, sig in items]
    n = len(sigs[0])
    rate = sigs[0].sample_rate
    for name, sig in items[1:]:
        if len(sig) != n:
            raise ValueError("signal length mismatch: %r has %d samples, expected %d" % (name, len(sig), n))
        if sig.sample_rate != rate:
            raise ValueError("inconsistent sample rate: %r at %g Hz, expected %g Hz" % (name, sig.sample_rate, rate))
    row = ",".join(["%.9g"] * (len(sigs) + 1)) + "\n"
    with open(path, "w", newline="") as f:
        f.write("time_s," + ",".join(names) + "\n")
        for start in range(0, n, _CSV_BLOCK):
            stop = min(start + _CSV_BLOCK, n)
            block = np.column_stack([np.arange(start, stop) / rate] + [sig.samples[start:stop] for sig in sigs])
            f.write("".join(row % tuple(values) for values in block.tolist()))


def to_mono(audio: AudioFile, mode="mean") -> Signal:
    """Collapse to one channel: samplewise mean, or pick a channel by index."""
    if mode == "mean":
        if audio.n_channels == 1:  # the mean of one channel is that channel
            return audio.channels[0]
        stacked = np.stack([ch.samples for ch in audio.channels])
        return Signal._wrap(stacked.mean(axis=0), audio.sample_rate_hz)
    try:
        index = int(mode)
    except (TypeError, ValueError):
        raise ValueError("unknown mono mode: %r (use 'mean' or a channel index)" % (mode,)) from None
    if not 0 <= index < audio.n_channels:
        raise ValueError(
            "channel index out of range: %d (file has %d)" % (index, audio.n_channels)
        )
    return audio.channels[index]

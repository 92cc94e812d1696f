"""RIFF/WAVE reading and writing, plus CSV export of time-aligned signals.

Reads uncompressed little-endian PCM (16/24/32-bit) and 32-bit IEEE float,
mono or multichannel. Integer samples are normalized to [-1, 1] by
2^(bits-1) on read; float samples are kept as-is and must be finite (a
NaN or infinity raises WavFormatError). Unknown chunks are
skipped (word-aligned), and `fmt ` must appear before `data`. Writing
supports mono 16-bit PCM and 32-bit float.
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
        tag = struct.unpack_from("<H", buf, offset + 24)[0]  # first GUID bytes
    if tag not in (_PCM, _IEEE_FLOAT):
        name = _CODEC_NAMES.get(tag, "0x%04x" % tag)
        raise WavFormatError("unsupported codec %s: %s" % (name, path))
    if channels < 1:
        raise WavFormatError("not a WAV file: zero channels declared: %s" % path)
    if rate == 0:
        raise WavFormatError("not a WAV file: zero sample rate declared: %s" % path)
    if (tag, bits) not in ((_PCM, 16), (_PCM, 24), (_PCM, 32), (_IEEE_FLOAT, 32)):
        kind = "float" if tag == _IEEE_FLOAT else "PCM"
        raise WavFormatError("unsupported bit depth: %d-bit %s: %s" % (bits, kind, path))
    return tag, channels, rate, bits


def _decode(raw: bytes, tag: int, channels: int, rate: int, bits: int, path) -> AudioFile:
    frame = (bits // 8) * channels
    raw = raw[: (len(raw) // frame) * frame]  # drop any partial trailing frame
    if tag == _IEEE_FLOAT:
        flat = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        if not np.isfinite(flat).all():
            raise WavFormatError("non-finite sample (NaN or inf) in float data: %s" % path)
        source = "float32"
    elif bits == 16:
        flat = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
        source = "pcm16"
    elif bits == 32:
        flat = np.frombuffer(raw, dtype="<i4").astype(np.float64) / 2147483648.0
        source = "pcm32"
    else:  # 24-bit: assemble little-endian triples and sign-extend
        triples = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        value = triples[:, 0] | (triples[:, 1] << 8) | (triples[:, 2] << 16)
        value = np.where(value & 0x800000, value - 0x1000000, value)
        flat = value.astype(np.float64) / 8388608.0
        source = "pcm24"
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


def write_wav(path, s: Signal, fmt: str = "pcm16") -> int:
    """Write a mono WAV file; returns how many samples were clipped to [-1, 1]."""
    x = s.samples
    if x.size and not np.isfinite(x).all():
        raise ValueError("non-finite sample")
    clipped = int(np.count_nonzero((x < -1.0) | (x > 1.0)))
    x = np.clip(x, -1.0, 1.0)
    rate = int(round(s.sample_rate))

    if fmt == "pcm16":
        payload = np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2").tobytes()
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE",
            b"fmt ", 16, _PCM, 1, rate, rate * 2, 2, 16,
            b"data", len(payload),
        )
    elif fmt == "float32":
        payload = x.astype("<f4").tobytes()
        header = struct.pack(
            "<4sI4s4sIHHIIHHH4sII4sI",
            b"RIFF", 50 + len(payload), b"WAVE",
            b"fmt ", 18, _IEEE_FLOAT, 1, rate, rate * 4, 4, 32, 0,
            b"fact", 4, x.size,
            b"data", len(payload),
        )
    else:
        raise ValueError("unsupported write format: %r (use 'pcm16' or 'float32')" % (fmt,))

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
    columns = [sig.samples for sig in sigs]
    with open(path, "w", newline="") as f:
        f.write("time_s," + ",".join(names) + "\n")
        for i in range(n):
            row = "%.9g" % (i / rate)
            for col in columns:
                row += ",%.9g" % col[i]
            f.write(row + "\n")


def to_mono(audio: AudioFile, mode="mean") -> Signal:
    """Collapse to one channel: samplewise mean, or pick a channel by index."""
    if mode == "mean":
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

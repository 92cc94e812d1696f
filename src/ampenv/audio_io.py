"""RIFF/WAVE reading and writing, plus CSV export of time-aligned signals.

Reads uncompressed little-endian PCM (16/24/32-bit) and 32-bit IEEE float,
mono or multichannel, also as WAVE_FORMAT_EXTENSIBLE with the standard
sub-format GUID. Integer samples are normalized to [-1, 1] by 2^(bits-1) on
read; float samples are kept as-is and must be finite (a NaN or infinity
raises WavFormatError). Unknown chunks are skipped (word-aligned), and `fmt `
must appear before `data`. A `data` size of 0 or 0xFFFFFFFF, as a streaming
writer leaves it, means the samples run to the end of the file; any partial
trailing frame is dropped. Writing supports mono 16-bit PCM and 32-bit float.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .signals import Signal


class WavFormatError(ValueError):
    """Raised when a file is not a decodable RIFF/WAVE stream."""


_PCM = 1
_IEEE_FLOAT = 3
_EXTENSIBLE = 0xFFFE
# An extensible SubFormat GUID is the 2-byte tag, then these 14 bytes of xxxx0000-0000-0010-8000-00aa00389b71.
_SUBFORMAT_BASE = bytes.fromhex("000000001000800000aa00389b71")
#: The readable sample formats: (codec tag, bits) -> (source name, sample
#: dtype, full scale). 24-bit has no NumPy dtype and is assembled from bytes.
_SAMPLE_FORMATS = {
    (_PCM, 16): ("pcm16", "<i2", 32768.0),
    (_PCM, 24): ("pcm24", None, 8388608.0),
    (_PCM, 32): ("pcm32", "<i4", 2147483648.0),
    (_IEEE_FLOAT, 32): ("float32", "<f4", 1.0),
}
# A data size a writer that did not know the length leaves: the data runs to the end of the file.
_STREAMED_SIZES = (0, 0xFFFFFFFF)
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


def _decode(data: bytes, offset: int, size: int, tag: int, channels: int, rate: int, bits: int, path) -> AudioFile:
    """Decode the whole frames in the ``size`` bytes at ``offset`` in ``data``, reading them where they lie."""
    source, dtype, scale = _SAMPLE_FORMATS[tag, bits]
    width = bits // 8
    count = size // (width * channels) * channels  # whole frames only
    flat = np.empty(count, np.float64)
    if dtype is None:  # 24-bit: each triple into the top 3 bytes of an int32, then sign-extend
        samples = np.zeros(count, "<i4")
        samples.view(np.uint8).reshape(-1, 4)[:, 1:] = np.frombuffer(data, np.uint8, 3 * count, offset).reshape(-1, 3)
        samples >>= 8
    else:
        samples = np.frombuffer(data, dtype, count, offset)
        # checked before the float64 cast, which warns on a signalling NaN
        if tag == _IEEE_FLOAT and not np.isfinite(samples).all():
            raise WavFormatError("non-finite sample (NaN or inf) in float data: %s" % path)
    np.divide(samples, scale, out=flat, dtype=np.float64)  # exact: every scale is a power of two
    if channels == 1:  # the decoded buffer is the channel
        sigs = (Signal._wrap(flat, float(rate)),)
    else:
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
            if size in _STREAMED_SIZES:
                size = len(data) - body
            elif body + size > len(data):
                raise WavFormatError(
                    "truncated file: data chunk claims %d bytes, %d available: %s"
                    % (size, len(data) - body, path)
                )
            return _decode(data, body, size, *fmt, path)
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


_WAV_BLOCK = 1 << 15  # write_wav samples per block; bounds the pcm16 encoder's float64 work buffer


def write_wav(path, s: Signal, fmt: str = "pcm16") -> int:
    """Write a mono WAV file; returns how many samples were clipped to [-1, 1].

    Checks ``wav_header_rate`` before the file is opened. pcm16 scales by
    2^15, rounds half to even and clips to [-32768, 32767], in blocks of
    ``_WAV_BLOCK`` samples written into one int16 payload.
    """
    rate = wav_header_rate(s.sample_rate, fmt)
    x = s.samples

    if fmt == "pcm16":
        payload = np.empty(x.size, "<i2")
        clipped = 0
        work = np.empty(min(x.size, _WAV_BLOCK))
        with np.errstate(over="ignore"):  # |x| near float64's max scales to inf, which clips the same
            for start in range(0, x.size, _WAV_BLOCK):
                y = work[: min(x.size - start, _WAV_BLOCK)]
                # Scaling by 2^15 is exact: y leaves [-32768, 32768] just where x leaves [-1, 1].
                np.multiply(x[start : start + y.size], 32768.0, out=y)
                clipped += int(np.count_nonzero(y < -32768.0)) + int(np.count_nonzero(y > 32768.0))
                np.rint(y, out=y)
                np.clip(y, -32768, 32767, out=y)
                payload[start : start + y.size] = y
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + payload.nbytes, b"WAVE",
            b"fmt ", 16, _PCM, 1, rate, rate * 2, 2, 16,
            b"data", payload.nbytes,
        )
    else:
        clipped = int(np.count_nonzero(x < -1.0)) + int(np.count_nonzero(x > 1.0))
        payload = np.empty(x.size, "<f4")
        np.clip(x, -1.0, 1.0, out=payload)
        header = struct.pack(
            "<4sI4s4sIHHIIHHH4sII4sI",
            b"RIFF", 50 + payload.nbytes, b"WAVE",
            b"fmt ", 18, _IEEE_FLOAT, 1, rate, rate * 4, 4, 32, 0,
            b"fact", 4, x.size,
            b"data", payload.nbytes,
        )

    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)
    return clipped


_CSV_BLOCK = 4096  # write_csv rows per encoded block; bounds the encoder's buffers

# -- CSV text: printf's %.9g, vectorised --------------------------------------
#
# In fixed notation, that is for printf's decimal exponent X in [-4, 8], a
# value's text follows from its 9-digit mantissa m = rint(|v| * 10^(8 - X)).
# That power of ten is exact in float64, so the product is rounded once.
# nd = m * 10^(4 + min(X, 0)) then holds the text's 13 digits: the dot goes
# after max(X, 0) + 1 of them, and for X < 0 they begin with the "0" before
# the dot and the zeros after it. Their ASCII comes from a table of 3-digit
# groups, small enough to stay in cache. Such a field (sign, digits, dot and
# separator) is at most 16 bytes, so it is built in two little-endian uint64
# words, with masks taken from tables indexed by the field's shape. Each
# field is then shifted to its byte offset in the output's 8-byte words and
# summed in with np.add.at. Fields cover disjoint bytes, so the sum is their
# concatenation.

_POW10 = 10.0 ** np.arange(13)  # every power used is exact in float64


class _CsvTables(NamedTuple):
    """Lookup tables of the CSV encoder; see ``_csv_tables``."""

    ascii3: np.ndarray
    significant3: np.ndarray
    keep_before: np.ndarray
    keep_after: np.ndarray
    fixed: np.ndarray
    field_len: np.ndarray


_POINT_KEY, _LAST_KEY = 14, 9 * 14  # strides of a field's shape key
_FIELD_MAX = 17  # bytes of the longest field, as in "-1.23456789e-200,"


@functools.cache
def _csv_tables() -> _CsvTables:
    """The encoder's tables, built on first use.

    Per 3-digit group g (``ascii3``, ``significant3``): its ASCII digits,
    zero-padded, most significant in the low byte; and 3 minus its trailing
    zeros, or -32 for g = 0 so that a zero group never decides a maximum.

    Per field shape, indexed by ``_LAST_KEY * last + _POINT_KEY * (before -
    1) + significant``: ``before`` (1-9) digits before the dot,
    ``significant`` (0-13) of nd's digits up to its last nonzero one, and
    ``last`` 1 in the last column. The (lo, hi) word masks that keep the
    digits before the dot (``keep_before``) and, from the digits shifted one
    byte up, those after it (``keep_after``); the dot and separator
    (``fixed``); and the field's length without a sign (``field_len``).

    The digit tables have 1,000 entries and the shape tables 252, so
    building them on first use takes a millisecond or two.
    """
    groups = ["%03d" % g for g in range(1000)]
    ascii3 = np.frombuffer("".join(group + "\0" * 5 for group in groups).encode("ascii"), "<u8")
    significant3 = np.array([len(group.rstrip("0")) or -32 for group in groups], np.intp)

    shapes = [(last, before, significant) for last in (0, 1) for before in range(1, 10) for significant in range(14)]
    keep_before, keep_after, fixed, field_len = [], [], [], []
    for last, before, significant in shapes:
        after = max(significant - before, 0)
        text = before + (after + 1 if after else 0)  # bytes before the separator
        keep_before.append(b"\xff" * before + bytes(16 - before))
        keep_after.append(bytes(before + 1) + b"\xff" * after + bytes(15 - before - after))
        tail = b"." + bytes(after) if after else b""
        fixed.append(bytes(before) + tail + (b"\n" if last else b",") + bytes(15 - text))
        field_len.append(text + 1)

    def words(rows):  # 16-byte rows -> their (lo, hi) little-endian words
        pairs = np.frombuffer(b"".join(rows), "<u8")
        return pairs[0::2].copy(), pairs[1::2].copy()

    return _CsvTables(
        ascii3, significant3, words(keep_before), words(keep_after), words(fixed), np.array(field_len, np.intp)
    )


def _mantissa(a: np.ndarray, e: np.ndarray, m: np.ndarray, p: np.ndarray, index: np.ndarray) -> None:
    """m = printf's rounding of a * 10^(8 - e) to an integer, or 0 to leave a to printf.

    printf rounds the exact product, half to even, as rint does the float
    product. The two can differ only where the float product is exactly a
    half-integer. 10^(8 - e) is 5^k * 2^k with 5^k < 2^28, so for an a of at
    most 24 significant bits (every pcm16, pcm24 and float32 sample) the
    product is exact and rint settles its tie as printf does. Any other a
    whose product is a tie gets m = 0, which hands it to printf. ``p`` and
    ``index`` are work space of a's size.
    """
    np.subtract(8, e, out=index)
    _POW10.take(index, out=p, mode="clip")
    p *= a
    np.rint(p, out=m)
    p -= m
    ties = np.flatnonzero(np.abs(p, out=p) == 0.5)
    if ties.size:
        x = a[ties]  # in [5e-13, 2^53): float32 holds x just when x has at most 24 bits
        m[ties[x.astype(np.float32) != x]] = 0


class _CsvEncoder:
    """printf's ``%.9g`` text for blocks of rows of float64 values.

    Fixed notation is built with NumPy in plain work arrays made once per
    encoder, each sized for a whole block, so that encoding a block
    allocates little. Values that printf writes in exponent notation
    (|v| < 1e-4 or >= 1e9 after rounding to 9 digits), ties that ``_mantissa``
    cannot settle, and any non-finite values are formatted by printf itself.
    """

    def __init__(self, rows: int, columns: int):
        size = rows * columns
        self._tables = _csv_tables()
        self.rows = np.empty((rows, columns))
        self._floats = np.empty((3, size))
        self._ints = np.empty((9, size), np.intp)
        self._words = np.empty((6, size), np.uint64)
        self._last = np.zeros(size, np.intp)  # each column's shape-key offset
        self._last[columns - 1 :: columns] = _LAST_KEY
        self._flags = np.empty((2, size), np.bool_)
        # The text takes at most _FIELD_MAX bytes a field, and a field is
        # summed into the 3 words from its start: 3 spare words.
        self._out = np.empty(_FIELD_MAX * size // 8 + 3, np.uint64)

    def encode(self, values: np.ndarray) -> np.ndarray:
        """The text of whole rows, given flattened row by row; a uint8 view of a buffer."""
        tables = self._tables
        n = values.size
        a, f, m = self._floats[:, :n]
        e, k, q1, q2, g0, g1, g2, g3, g4 = self._ints[:, :n]
        lo, hi, u_lo, u_hi, t, t2 = self._words[:, :n]
        flag, neg = self._flags[:, :n]

        # The exponent e = floor(log10 |v|), clipped to [-4, 8]. printf
        # formats the values whose mantissa m then falls outside [1e8, 1e9):
        # exponent notation, and the rare ones just below a power of ten,
        # where log10 can round up or m rounds up into the next decade.
        np.abs(values, out=a)
        with np.errstate(divide="ignore", invalid="ignore"):  # log10(0) = -inf to int; inf - inf
            np.log10(a, out=f)
            np.floor(f, out=f)
            np.copyto(e, f, casting="unsafe")
            np.minimum(e, 8, out=e)
            np.maximum(e, -4, out=e)
            _mantissa(a, e, m, f, k)
        np.less(m, 1e9, out=flag)
        flag &= (m >= 1e8) | (a == 0)
        printf = np.flatnonzero(~flag)  # exponent notation, or not finite
        m[printf] = 0

        # nd = m * 10^(4 + min(e, 0)) as groups g4 (one digit) g3 g2 g1 g0
        # (three each); its 13 ASCII digits from byte 0 of (lo, hi), and one
        # byte up in (t, t2).
        np.minimum(e, 0, out=k)
        k += 4
        _POW10.take(k, out=f, mode="clip")
        f *= m
        np.copyto(k, f, casting="unsafe")
        for group, rest, high in ((g0, k, q1), (g1, q1, k), (g2, k, q1), (g3, q1, g4)):
            np.floor_divide(rest, 1000, out=high)
            np.multiply(high, 1000, out=group)
            np.subtract(rest, group, out=group)
        np.add(g4, ord("0"), out=lo, casting="unsafe")
        for group, shift in ((g3, 8), (g2, 32), (g1, 56)):
            tables.ascii3.take(group, out=t, mode="clip")
            t <<= np.uint64(shift)
            lo |= t
        tables.ascii3.take(g1, out=t, mode="clip")
        np.right_shift(t, np.uint64(8), out=hi)
        tables.ascii3.take(g0, out=t, mode="clip")
        t <<= np.uint64(16)
        hi |= t
        np.left_shift(lo, np.uint64(8), out=t)
        np.left_shift(hi, np.uint64(8), out=t2)
        np.right_shift(lo, np.uint64(56), out=u_lo)
        t2 |= u_lo

        # The field's shape k, from nd's digits up to the last nonzero one
        # and the digits before the dot; then its bytes (u_lo, u_hi).
        np.minimum(g4, 1, out=q1)
        for group, offset in ((g3, 1), (g2, 4), (g1, 7), (g0, 10)):
            tables.significant3.take(group, out=q2, mode="clip")
            q2 += offset
            np.maximum(q1, q2, out=q1)
        np.maximum(e, 0, out=k)
        k *= _POINT_KEY
        k += q1
        k += self._last[:n]
        tables.keep_before[0].take(k, out=u_lo, mode="clip")
        u_lo &= lo
        tables.keep_before[1].take(k, out=u_hi, mode="clip")
        u_hi &= hi
        tables.keep_after[0].take(k, out=lo, mode="clip")
        lo &= t
        u_lo |= lo
        tables.keep_after[1].take(k, out=hi, mode="clip")
        hi &= t2
        u_hi |= hi
        tables.fixed[0].take(k, out=t, mode="clip")
        u_lo |= t
        tables.fixed[1].take(k, out=t, mode="clip")
        u_hi |= t
        length = q2
        tables.field_len.take(k, out=length, mode="clip")
        np.signbit(values, out=neg)
        if printf.size:
            u_lo[printf] = 0
            u_hi[printf] = 0
            neg[printf] = False  # printf writes the sign
            text = np.frombuffer((("%.9g," * printf.size) % tuple(values[printf].tolist())).encode("ascii"), np.uint8)
            text_end = np.flatnonzero(text == ord(",")) + 1
            text_len = text_end.copy()
            text_len[1:] -= text_end[:-1]
            length[printf] = text_len
        length += neg

        # A field whose digits start at byte b of the output is shifted up
        # by b % 8 bytes into words b // 8 to b // 8 + 2 (u_lo, u_hi, hi).
        end = g0
        np.cumsum(length, out=end)
        start = g1
        np.subtract(end, length, out=start)
        np.add(start, neg, out=k)
        word = g2
        np.right_shift(k, 3, out=word)
        shift = t2
        np.bitwise_and(k, 7, out=shift, casting="unsafe")
        shift <<= np.uint64(3)
        np.subtract(np.uint64(63), shift, out=lo)
        np.right_shift(u_lo, np.uint64(1), out=t)  # x >> (64 - s) as (x >> 1) >> (63 - s): s may be 0
        t >>= lo
        np.right_shift(u_hi, np.uint64(1), out=hi)
        hi >>= lo
        u_lo <<= shift
        u_hi <<= shift
        u_hi |= t
        total = int(end[-1]) if n else 0
        out = self._out[: total // 8 + 3]
        out.fill(0)
        for part in (u_lo, u_hi, hi):
            np.add.at(out, word, part)
            word += 1
        text_out = out.view(np.uint8)
        if printf.size:
            text_out[np.repeat(start[printf] - (text_end - text_len), text_len) + np.arange(text.size)] = text
            text_out[end[printf[self._last[printf] != 0]] - 1] = ord("\n")
        text_out[start[neg]] = ord("-")
        return text_out[:total]


def write_csv(path, signals) -> None:
    """Write time-aligned signals as CSV.

    ``signals`` maps column names to Signals (dict or (name, Signal) pairs);
    all must share length and sample rate. The header is
    ``time_s,<name1>,<name2>,...``, and each row holds the sample's time in
    seconds (index / rate) and its values. Every number is written exactly
    as printf's ``%.9g`` writes it. Rows are encoded in blocks of
    ``_CSV_BLOCK``, so memory stays bounded: values in fixed notation are
    formatted with NumPy, and the few that printf writes in exponent
    notation (|v| < 1e-4 or >= 1e9 after rounding to 9 digits) are handed to
    printf itself.
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
    encoder = _CsvEncoder(min(n, _CSV_BLOCK), len(sigs) + 1)
    with open(path, "w", newline="") as f:
        f.write("time_s," + ",".join(names) + "\n")
        f.flush()  # the rows go to the byte stream under the text layer
        for start in range(0, n, _CSV_BLOCK):
            stop = min(start + _CSV_BLOCK, n)
            chunk = encoder.rows[: stop - start]
            np.divide(np.arange(start, stop), rate, out=chunk[:, 0])
            for column, sig in enumerate(sigs, 1):
                chunk[:, column] = sig.samples[start:stop]
            f.buffer.write(encoder.encode(chunk.reshape(-1)))


def to_mono(audio: AudioFile, mode="mean") -> Signal:
    """Collapse to one channel: samplewise mean, or pick a channel by index."""
    if mode == "mean":
        if audio.n_channels == 1:  # the mean of one channel is that channel
            return audio.channels[0]
        # The bits of np.stack(...).mean(axis=0), whose reduce adds the rows
        # in order, without its n_channels x n copy.
        total = audio.channels[0].samples.copy()
        for ch in audio.channels[1:]:
            total += ch.samples
        total /= audio.n_channels
        return Signal._wrap(total, audio.sample_rate_hz)
    try:
        index = int(mode)
    except (TypeError, ValueError):
        raise ValueError("unknown mono mode: %r (use 'mean' or a channel index)" % (mode,)) from None
    if not 0 <= index < audio.n_channels:
        raise ValueError(
            "channel index out of range: %d (file has %d)" % (index, audio.n_channels)
        )
    return audio.channels[index]

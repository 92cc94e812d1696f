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
import operator
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
    """Decoded audio: one Signal per channel, all the same length and at the file's rate."""

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
        rate = float(self.sample_rate_hz)
        for ch in channels:
            if ch.sample_rate != rate:
                raise ValueError("inconsistent sample rate: channel at %g Hz, file at %g Hz" % (ch.sample_rate, rate))
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "sample_rate_hz", rate)

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
# A value's text follows from printf's decimal exponent e and its 9-digit
# mantissa m = rint(|v| * 10^(8 - e)), which lies in [1e8, 1e9) and so fits
# an int32. For e in [-14, 8] the power of ten is exact in float64 (10^22 is
# 2^22 * 5^22 with 5^22 < 2^53), so the product is rounded once. The tables
# are indexed by x = e + 16, clipped to [1, 24], so that x = 1 holds 0 and
# every |v| < 1e-14; the latter, like every value printf writes, then get
# x = 0, a field of no bytes.
#
# m is split once into three 3-digit groups, whose ASCII digits come from
# tables small enough to stay in cache: m's nine digits lie in bytes 0-8 of
# two little-endian uint64 words (lo, hi). A field (digits, dot, exponent
# suffix and separator; the sign is written apart) is at most 15 bytes. It is
# built from two copies of those words: the digits before the dot where they
# lie, and the digits after it shifted A bytes up. The masks that keep either
# copy's digits, the field's constant bytes and separator ",", A and the
# field's length come from tables indexed by its shape: x and the count of
# m's digits up to its last nonzero one. Where each digit and constant byte
# lies is read from printf's text for one value of the shape
# (``_field_text``). Each field is then shifted to its byte offset in the
# output's 8-byte words and summed in with np.add.at. Fields cover disjoint
# bytes, so the sum is their concatenation; each row's last separator is
# then overwritten with a newline.
#
# A field's bytes other than its sign depend only on |v|, and each sign is
# placed from the value's own sign bit. So a column that equals |previous
# column| takes that column's fields, and one value per run of equal values
# gives the fields of the whole run; digits are built only for the other
# values (``_CsvEncoder._select``). Fields that printf writes carry their
# sign in their text, so each of those is formatted from its own value.
#
# rint rounds the float product where printf rounds the exact one. They can
# part only where the float product is exactly a half-integer, and there
# ``_mantissa`` keeps the ties it can prove exact and hands the rest to
# printf: for e < -4 the power is exact but its product with a 24-bit sample
# is not, so only 2^-14 stays.

_X_BIAS, _X_MAX = 16, 24  # x = e + 16 for printf's exponent e, up to e = 8
# 10^(8 - e) by x, each exact in float64; 0 below e = -14, whose mantissa of
# 0 hands the value to printf.
_POW10 = np.array([0.0, 0.0] + [float(10 ** (_X_BIAS + 8 - x)) for x in range(2, _X_MAX + 1)])
_X_KEY = 10  # stride of x in a field's shape key: the count of m's significant digits is 0-9
_FIELD_MAX = 17  # bytes of the longest field, as in "-1.23456789e-200,"


class _CsvTables(NamedTuple):
    """Lookup tables of the CSV encoder; see ``_csv_tables``."""

    ascii3: np.ndarray
    significant3: np.ndarray
    keep_before: np.ndarray
    keep_after: np.ndarray
    fixed: np.ndarray
    shift: np.ndarray
    field_len: np.ndarray


def _field_text(x: int, significant: int) -> list:
    """A field's text without sign and separator: per byte, a digit's index in m or a constant character.

    Taken from printf's own text for one value of the shape: the value
    whose m starts with ``significant`` digits of "123456789" and ends in
    zeros, at exponent e = x - 16. Those digits are all different, so each
    one printf writes before any "e" names its place in m; every other
    byte (the point, zeros before or after it, the exponent) is constant.
    """
    if x < 2:  # printf writes the field (x = 0), or the value is 0 (x = 1)
        return list("0"[:x])
    digits = "123456789"[:significant]
    mantissa, e, exponent = ("%.9g" % float("%se%d" % (digits.ljust(9, "0"), x - _X_BIAS - 8))).partition("e")
    return [int(c) - 1 if c in digits else c for c in mantissa] + list(e + exponent)


@functools.cache
def _csv_tables() -> _CsvTables:
    """The encoder's tables, built on first use.

    Per 3-digit group g, one row for g as each of m's three groups:
    ``ascii3``, its ASCII digits, zero-padded, where they lie in m's text
    (bytes 0-2, 3-5 and 6-7 of lo; a fourth row, byte 8 in hi); and
    ``significant3``, m's digits up to g's last nonzero one, which is 0, 3
    or 6 plus 3 less g's trailing zeros. For g = 0 it is 0 in the first
    group, as in m = 0, and -32 in the others, so that a zero group never
    decides the maximum of the three.

    Per field shape, indexed by ``_X_KEY * x + significant``: ``x`` (0-24)
    and ``significant`` (0-9) of m's digits up to its last nonzero one. The
    lo mask that keeps the digits before the dot (``keep_before``); the (lo,
    hi) masks that keep the digits after it from the words shifted A bytes up
    (``keep_after``); the constant bytes and the separator "," (``fixed``);
    the shift 8A in bits (``shift``); and the field's length without a sign
    (``field_len``).

    The digit tables have 1,000 entries and the shape tables 250, so
    building them on first use takes a few milliseconds.
    """
    groups = ["%03d" % g for g in range(1000)]
    ascii3 = np.frombuffer("".join(group + "\0" * 5 for group in groups).encode("ascii"), "<u8")
    ascii3 = np.stack([ascii3, ascii3 << np.uint64(24), ascii3 << np.uint64(48), ascii3 >> np.uint64(16)])
    trimmed = np.array([len(group.rstrip("0")) for group in groups], np.int16)
    significant3 = np.stack([trimmed, 3 + trimmed, 6 + trimmed])
    significant3[1:, 0] = -32

    keep_before, keep_after, fixed, shift, field_len = [], [], [], [], []
    for x in range(_X_MAX + 1):
        for significant in range(_X_KEY):
            text = _field_text(x, significant)
            before, after, const = bytearray(8), bytearray(16), bytearray(16)
            shifts = set()  # A, the same for every digit after the dot
            for pos, item in enumerate(text):
                if isinstance(item, str):
                    const[pos] = ord(item)
                elif pos == item < 8:
                    before[pos] = 0xFF
                else:
                    after[pos] = 0xFF
                    shifts.add(pos - item)
            if text:
                const[len(text)] = ord(",")
            (a,) = shifts or {1}
            keep_before.append(bytes(before))
            keep_after.append(bytes(after))
            fixed.append(bytes(const))
            shift.append(8 * a)
            field_len.append(len(text) + 1 if text else 0)

    def words(rows):  # 16-byte rows -> their (lo, hi) little-endian words
        pairs = np.frombuffer(b"".join(rows), "<u8")
        return np.stack([pairs[0::2], pairs[1::2]])

    return _CsvTables(
        ascii3,
        significant3,
        np.frombuffer(b"".join(keep_before), "<u8").copy(),
        words(keep_after),
        words(fixed),
        np.array(shift, np.uint64),
        np.array(field_len, np.intp),
    )


def _mantissa(a: np.ndarray, x: np.ndarray, m: np.ndarray, p: np.ndarray) -> None:
    """m = printf's rounding of a * 10^(8 - e) to an integer, e = x - 16, or 0 to leave a to printf.

    printf rounds the exact product, half to even, as rint does the float
    product, which is the exact one rounded once. The two can differ only
    where the float product is exactly a half-integer: any other float lies
    at least an ulp from every half-integer, further than the rounding moved
    it. For e >= -4, 10^(8 - e) is 5^k * 2^k with 5^k < 2^28, so for an a of
    at most 24 significant bits (every pcm16, pcm24 and float32 sample) the
    product is exact and rint settles its tie as printf does. For e < -4
    (k >= 13) that product need not be exact, and an exact tie below 1e9 is
    an odd multiple of 5^k / 2: only 5^13 / 2 = 2^-14 * 10^13. So a tie
    keeps its m for a 24-bit a with e >= -4, and for a = 2^-14 (pcm16's 2,
    pcm24's 1024); every other tie, a product within half an ulp of a
    half-integer, gets m = 0 and goes to printf. ``p`` is work space of a's
    size.
    """
    _POW10.take(x, out=p, mode="clip")
    p *= a
    np.rint(p, out=m)
    p -= m
    ties = np.flatnonzero(np.abs(p, out=p) == 0.5)
    if ties.size:
        v = a[ties]  # in [1e-14, 2^53): float32 holds v just when v has at most 24 bits
        exact = ((v.astype(np.float32) == v) & (x[ties] >= _X_BIAS - 4)) | (v == 2.0**-14)
        m[ties[~exact]] = 0


class _CsvEncoder:
    """printf's ``%.9g`` text for blocks of rows of float64 values.

    Fixed and exponent notation are built with NumPy in plain work arrays
    made once per encoder, each sized for a whole block, so that encoding a
    block allocates little. The integer work arrays are int32 or int16 where
    their values fit; the lookup indices are intp, which ``take`` uses as
    they are. Values of |v| < 1e-14 or >= 1e9 after rounding to 9 digits,
    the rare ones just below a power of ten whose log10 rounds up, ties that
    ``_mantissa`` cannot settle, and any non-finite values are formatted by
    printf itself.

    A block is held column by column (``block``), so each column's checks,
    fields and offsets are contiguous. Digits are built only for the values
    ``_select`` picks.
    """

    def __init__(self, rows: int, columns: int):
        size = rows * columns
        self._tables = _csv_tables()
        self.block = np.empty((columns, rows))
        # Rows 0-2 hold the fields built (lo, t2 and length), rows 3-5 every
        # field of the block; m's float work arrays come first in rows 0-2.
        self._words = np.empty((6, size), np.uint64)
        self._index = np.empty((4, size), np.intp)
        self._int32 = np.empty((4, size), np.int32)
        self._int16 = np.empty((3, size), np.int16)
        self._neg = np.empty(size, np.bool_)
        # The text takes at most _FIELD_MAX bytes a field, and a field is
        # summed into the 3 words from its start: 3 spare words.
        self._out = np.empty(_FIELD_MAX * size // 8 + 3, np.uint64)

    def _select(self, block: np.ndarray) -> tuple[list, int]:
        """Put |v| of the values whose digits are built in the first word array's float view.

        Returns, per column, where its fields lie among them (a slice, or
        an index per row), and their count. A column equal to np.abs of the
        column before it lies where that column does. A column whose values
        run in runs of equal values two rows or more long on average, as a
        staircase of bunch peaks does, gives one value per run, whose field
        every row of the run takes. Every other column gives all of its
        values.
        """
        rows = block.shape[1]
        a = self._words[0].view(np.float64)
        head = self._neg[:rows]
        plan = []
        count = 0
        for c, column in enumerate(block):
            if c and abs(block[c - 1, 0]) == column[0]:  # else it cannot equal |previous column|
                if np.equal(np.abs(block[c - 1]), column, out=head).all():
                    plan.append(plan[-1])
                    continue
            head[0] = True
            np.not_equal(column[1:], column[:-1], out=head[1:])
            runs = np.count_nonzero(head)
            if 2 * runs <= rows:
                starts = np.flatnonzero(head)
                run_length = np.empty(runs, np.intp)
                np.subtract(starts[1:], starts[:-1], out=run_length[:-1])
                run_length[-1] = rows - starts[-1]
                where = np.repeat(np.arange(count, count + runs), run_length)
                column = column[starts]
            else:
                where = slice(count, count + rows)
            plan.append(where)
            np.abs(column, out=a[count : count + column.size])
            count += column.size
        return plan, count

    def encode(self, block: np.ndarray) -> np.ndarray:
        """The text of a block of whole rows, given column by column as (columns, rows); a uint8 view of a buffer."""
        tables = self._tables
        columns, rows = block.shape
        plan, count = self._select(block)
        a, f, m = self._words[:3, :count].view(np.float64)  # free once m is an int32
        lo, t2, length, hi, t, w = self._words[:, :count]
        groups, k = self._index[:3, :count], self._index[3, :count]
        g0, g1, g2, q = self._int32[:, :count]
        x, s, s2 = self._int16[:, :count]

        # x = floor(log10 |v|) + 16, clipped to [1, 24], and the mantissa m.
        # printf formats the values whose m then falls outside [1e8, 1e9),
        # other than 0: |v| < 1e-14 or >= 1e9, and the rare ones just below
        # a power of ten, where log10 can round up or m rounds up into the
        # next decade. They get x = 0 and m = 0, a field of no bytes.
        with np.errstate(divide="ignore", invalid="ignore"):  # log10(0) = -inf, and it or a NaN to int
            np.log10(a, out=f)
            f += _X_BIAS  # below 1e-16, where the cast does not floor, x is clipped to 1
            np.copyto(x, f, casting="unsafe")  # in int16 range for every finite |v|
            np.clip(x, 1, _X_MAX, out=x)
            _mantissa(a, x, m, f)
            np.fmin(m, 1e9, out=m)  # a NaN becomes 1e9, which fits an int32 too
            np.copyto(g2, m, casting="unsafe")
        np.subtract(g2, 100_000_000, out=q)
        printf = np.flatnonzero(q.view(np.uint32) >= 900_000_000)
        if printf.size:
            zero = a[printf] == 0
            x[printf[zero]] = 1
            printf = printf[~zero]
            g2[printf] = 0
            x[printf] = 0

        # m's groups g0 g1 g2 (three digits each), split in int32, then as
        # intp lookup indices; m's nine ASCII digits from byte 0 of (lo, hi).
        np.floor_divide(g2, 1000, out=g1)
        np.multiply(g1, 1000, out=q)
        g2 -= q
        np.floor_divide(g1, 1000, out=g0)
        np.multiply(g0, 1000, out=q)
        g1 -= q
        np.copyto(groups, self._int32[:3, :count])
        g0, g1, g2 = groups
        tables.ascii3[0].take(g0, out=lo, mode="clip")
        tables.ascii3[1].take(g1, out=w, mode="clip")
        lo |= w
        tables.ascii3[2].take(g2, out=w, mode="clip")
        lo |= w
        tables.ascii3[3].take(g2, out=hi, mode="clip")

        # The field's shape k, from x and m's digits up to its last nonzero
        # one; then its bytes (lo, t2) and its length without the sign.
        tables.significant3[0].take(g0, out=s, mode="clip")
        tables.significant3[1].take(g1, out=s2, mode="clip")
        np.maximum(s, s2, out=s)
        tables.significant3[2].take(g2, out=s2, mode="clip")
        np.maximum(s, s2, out=s)
        x *= _X_KEY
        x += s
        np.copyto(k, x)
        tables.shift.take(k, out=w, mode="clip")
        np.left_shift(lo, w, out=t)
        np.left_shift(hi, w, out=t2)
        np.subtract(np.uint64(40), w, out=w)
        np.right_shift(lo, np.uint64(24), out=hi)  # lo >> (64 - 8A) as (lo >> 24) >> (40 - 8A): A may be 0
        hi >>= w
        t2 |= hi  # (t, t2) is (lo, hi) shifted A bytes up
        tables.keep_before.take(k, out=w, mode="clip")
        lo &= w
        tables.keep_after[0].take(k, out=w, mode="clip")
        t &= w
        lo |= t
        tables.fixed[0].take(k, out=w, mode="clip")
        lo |= w
        tables.keep_after[1].take(k, out=w, mode="clip")
        t2 &= w
        tables.fixed[1].take(k, out=w, mode="clip")
        t2 |= w
        tables.field_len.take(k, out=length.view(np.intp), mode="clip")

        # Every field of the block, column by column. printf writes each
        # field that has no bytes from its own value, with its sign: a field
        # of |v| taken from one of v would carry v's '-'.
        n = block.size
        built, fields = self._words[:3, :count], self._words[3:, :n]
        for c, where in enumerate(plan):
            column = fields[:, c * rows : (c + 1) * rows]
            if isinstance(where, slice):
                column[...] = built[:, where]
            else:
                for part, field in zip(built, column):
                    part.take(where, out=field, mode="clip")
        lo, t2 = fields[:2]
        length = fields[2].view(np.intp)
        hi, t = self._words[:2, :n]
        start, size, sign = self._index[:3, :n]  # sign: neg as 0 or 1
        neg = self._neg[:n]
        if printf.size:  # else no field has no bytes
            printf = np.flatnonzero(np.equal(length, 0, out=neg))
        np.signbit(block, out=neg.reshape(columns, rows))
        if printf.size:
            neg[printf] = False  # printf writes the sign
            values = block[np.divmod(printf, rows)].tolist()
            text = np.frombuffer((("%.9g," * printf.size) % tuple(values)).encode("ascii"), np.uint8)
            text_end = np.flatnonzero(text == ord(",")) + 1
            text_len = text_end.copy()
            text_len[1:] -= text_end[:-1]
            length[printf] = text_len

        # Each field's bytes (size, with any sign) and each row's end; then,
        # from the last column back, where each field starts.
        np.copyto(sign, neg)
        np.add(length, sign, out=size)
        sizes, starts = size.reshape(columns, rows), start.reshape(columns, rows)
        row_end = self._index[3, :rows]
        np.add.reduce(sizes, axis=0, out=row_end)
        np.cumsum(row_end, out=row_end)
        np.subtract(row_end, sizes[-1], out=starts[-1])
        for c in range(columns - 2, -1, -1):
            np.subtract(starts[c + 1], sizes[c], out=starts[c])
        start += sign  # the digits start after any sign

        # A field whose digits start at byte b of the output is shifted up
        # by b % 8 bytes into words b // 8 to b // 8 + 2 (lo, t2, hi).
        shift = size
        np.bitwise_and(start, 7, out=shift)
        shift <<= 3
        shift = shift.view(np.uint64)
        np.subtract(np.uint64(63), shift, out=hi)
        np.right_shift(lo, hi, out=t)  # x >> (64 - s) as (x >> (63 - s)) >> 1: s may be 0
        t >>= np.uint64(1)
        lo <<= shift
        np.right_shift(t2, hi, out=hi)
        hi >>= np.uint64(1)
        t2 <<= shift
        t2 |= t
        total = int(row_end[-1])
        out = self._out[: total // 8 + 3]
        out.fill(0)
        word = length
        np.right_shift(start, 3, out=word)
        for part in (lo, t2, hi):
            np.add.at(out, word, part)
            word += 1
        text_out = out.view(np.uint8)
        if printf.size:
            text_out[np.repeat(start[printf] - (text_end - text_len), text_len) + np.arange(text.size)] = text
        row_end -= 1
        text_out[row_end] = ord("\n")  # over each row's last separator
        signs = start.take(np.flatnonzero(neg))
        signs -= 1
        text_out[signs] = ord("-")
        return text_out[:total]


def write_csv(path, signals) -> None:
    """Write time-aligned signals as CSV.

    ``signals`` maps column names to Signals (dict or (name, Signal) pairs);
    all must share length and sample rate, and no name may hold a comma, a
    newline or a carriage return. The header is
    ``time_s,<name1>,<name2>,...`` in UTF-8, and each row holds the sample's
    time in seconds (index / rate) and its values. Every number is written
    exactly as printf's ``%.9g`` writes it. Rows are encoded in blocks of
    ``_CSV_BLOCK``, so memory stays bounded: values are formatted with
    NumPy, and the few that are not (|v| < 1e-14 or >= 1e9 after rounding
    to 9 digits, and the ties ``_mantissa`` cannot settle) are handed to
    printf itself.

    Within a block, digits are built only for the values that need them. A
    column that equals np.abs of the column before it, as ``ampenv
    envelope``'s abs column does its signal's, takes that column's digits;
    a column of runs of equal values, as its staircase of bunch peaks is,
    takes one value's digits per run. The bytes do not change: printf's
    text of |v| is the text of v without its '-', equal values have equal
    text but for the sign, and every sign is written from the value's own
    sign bit. A value printf writes is formatted from its own value, sign
    and all, in every column.
    """
    items = list(signals.items()) if isinstance(signals, dict) else list(signals)
    if not items:
        raise ValueError("no signals to write")
    names = [str(name) for name, _ in items]
    for name in names:
        if any(c in name for c in ",\n\r"):
            raise ValueError("invalid signal name: %r" % name)
    sigs = [sig for _, sig in items]
    n = len(sigs[0])
    rate = sigs[0].sample_rate
    for name, sig in items[1:]:
        if len(sig) != n:
            raise ValueError("signal length mismatch: %r has %d samples, expected %d" % (name, len(sig), n))
        if sig.sample_rate != rate:
            raise ValueError("inconsistent sample rate: %r at %g Hz, expected %g Hz" % (name, sig.sample_rate, rate))
    header = ("time_s," + ",".join(names) + "\n").encode("utf-8")
    encoder = _CsvEncoder(min(n, _CSV_BLOCK), len(sigs) + 1)
    with open(path, "wb") as f:
        f.write(header)
        for start in range(0, n, _CSV_BLOCK):
            stop = min(start + _CSV_BLOCK, n)
            block = encoder.block[:, : stop - start]
            np.divide(np.arange(start, stop), rate, out=block[0])
            for column, sig in zip(block[1:], sigs):
                column[:] = sig.samples[start:stop]
            f.write(encoder.encode(block))


def to_mono(audio: AudioFile, mode="mean") -> Signal:
    """Collapse to one channel: samplewise mean, or pick a channel by index.

    The index is an integer or its decimal text; any other mode, such as a
    fractional number, is a ``ValueError``.
    """
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
    try:  # operator.index: int() would truncate a fractional index such as 1.7
        index = int(mode) if isinstance(mode, str) else operator.index(mode)
    except (TypeError, ValueError):
        raise ValueError("unknown mono mode: %r (use 'mean' or a channel index)" % (mode,)) from None
    if not 0 <= index < audio.n_channels:
        raise ValueError(
            "channel index out of range: %d (file has %d)" % (index, audio.n_channels)
        )
    return audio.channels[index]

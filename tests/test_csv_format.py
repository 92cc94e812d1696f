"""write_csv writes every number exactly as printf's %.9g does."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import printf_csv

from ampenv import PRESETS, EnvelopeParams, Signal, SyntheticSpec, read_wav, three_step_stages, to_mono, write_csv
from ampenv.bench import generate
from ampenv.cli import main

RATE = 44100

# (codec tag, bits, encode): samples in [-1, 1] to little-endian bytes.
FORMATS = {
    "pcm16": (1, 16, lambda x: np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2").tobytes()),
    "pcm24": (
        1,
        24,
        lambda x: np.clip(np.rint(x * 8388608.0), -8388608, 8388607)
        .astype("<i4")
        .view(np.uint8)
        .reshape(-1, 4)[:, :3]
        .tobytes(),
    ),
    "float32": (3, 32, lambda x: x.astype("<f4").tobytes()),
}


def wav_bytes(frames: np.ndarray, fmt: str) -> bytes:
    """A canonical WAV of (samples, channels) frames in ``fmt``."""
    tag, bits, encode = FORMATS[fmt]
    channels = frames.shape[1]
    payload = encode(frames.reshape(-1))
    align = channels * bits // 8
    fmt_chunk = struct.pack("<HHIIHH", tag, channels, RATE, RATE * align, align, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt_chunk + b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


def am_clip(channels: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(RATE // 2)[:, None] / RATE
    env = 1.0 + 0.6 * np.sin(2.0 * np.pi * rng.uniform(2.0, 9.0, channels) * t)
    return 0.95 * env / 1.6 * np.sin(2.0 * np.pi * rng.uniform(200.0, 4000.0, channels) * t)


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_envelope_csv_equals_printf(tmp_path, capsys, fmt, channels, preset):
    wav = tmp_path / "clip.wav"
    wav.write_bytes(wav_bytes(am_clip(channels, seed=channels), fmt))
    out = tmp_path / "clip.csv"
    assert main(["envelope", str(wav), "--preset", preset, "-o", str(out)]) == 0
    sig = to_mono(read_wav(wav))
    rectified, staircase, envelope = three_step_stages(sig, PRESETS[preset])
    stages = {"signal": sig, "abs": rectified, "staircase": staircase, "envelope": envelope}
    assert out.read_bytes() == printf_csv(stages)


def test_synth_csv_equals_printf(tmp_path, capsys):
    out = tmp_path / "synth.csv"
    argv = ["synth", "--kind", "multi_carrier_am", "--carrier", "300", "1200", "3100", "--duration", "0.5"]
    assert main(argv + ["--format", "csv", "-o", str(out)]) == 0
    sig, truth = generate(SyntheticSpec(kind="multi_carrier_am", carrier_hz=(300.0, 1200.0, 3100.0), duration_s=0.5))
    assert out.read_bytes() == printf_csv({"signal": sig, "truth": truth})


EDGES = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    np.nextafter(1e-4, 0.0),
    1e-4,
    np.nextafter(1e-4, 1.0),
    -np.nextafter(1e-4, 0.0),
    np.nextafter(1e9, 0.0),
    1e9,
    np.nextafter(1e9, 2e9),
    999999999.5,
    np.nextafter(999999999.5, 0.0),
    9.9999999995,  # rounds up to the next decade
    -9.9999999995,
    99999999.95,
    0.00099999999995,
    0.99999999951,
    9.999999995e-5,  # to 0.0001, in fixed notation
    9.9999999996e-10,
    9.999999999e-14,
    0.5,
    2.5,
    123456789.5,
    # Products with 10^4 that round to exactly n + 0.5 in float64, although
    # the decimal values lie just above (the first) and just below it.
    10091.38125,
    12038.78975,
    0.1,
    1.0 / 3.0,
    1.7976931348623157e308,
    -1e300,
]


@pytest.mark.parametrize("rate", [44100.0, 1e-9, 3.0])
def test_edge_values_equal_printf(tmp_path, rate):
    # Small rates give times of 1e9 s and more, in exponent notation.
    edges = np.array(EDGES)
    columns = {"edge": Signal(edges, rate), "negated": Signal(-edges, rate), "reversed": Signal(edges[::-1], rate)}
    path = tmp_path / "edges.csv"
    write_csv(path, columns)
    assert path.read_bytes() == printf_csv(columns)


def test_block_edges_equal_printf(tmp_path, rng):
    # Lengths on both sides of a whole number of encoder blocks.
    from ampenv.audio_io import _CSV_BLOCK

    for n in (1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 2 * _CSV_BLOCK + 7):
        columns = {"x": Signal(rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 10, n), 48000.0)}
        path = tmp_path / "blocks.csv"
        write_csv(path, columns)
        assert path.read_bytes() == printf_csv(columns)


@pytest.mark.parametrize("columns, rate", [(8, 44100.0), (1, 7e-300)])
def test_blocks_of_the_longest_fields_equal_printf(tmp_path, columns, rate):
    # Exponent-notation fields of 17 bytes, such as "-1.23456789e-200,",
    # filling whole blocks; at 7e-300 Hz the times print as 1.42857143e+299 and so on.
    from ampenv.audio_io import _CSV_BLOCK

    n = 2 * _CSV_BLOCK + 3
    signals = {"c%d" % i: Signal(np.full(n, -1.23456789e-200 * (i + 1)), rate) for i in range(columns)}
    path = tmp_path / "long.csv"
    write_csv(path, signals)
    assert path.read_bytes() == printf_csv(signals)


# k / 32768 with k = 32 (mod 64) is (2j + 1) / 1024, whose nine digits in
# [0.1, 1) end in an exact half: printf rounds it to even.
PCM16_TIES = np.arange(32, 32768, 64) / 32768.0
PCM16_TIES = PCM16_TIES[PCM16_TIES >= 0.1]


def test_pcm16_ties_equal_printf(tmp_path):
    columns = {"tie": Signal(PCM16_TIES, 44100.0), "negated": Signal(-PCM16_TIES, 44100.0)}
    path = tmp_path / "ties.csv"
    write_csv(path, columns)
    assert path.read_bytes() == printf_csv(columns)


def equals_printf(tmp_path, values) -> bool:
    """Whether write_csv writes ``values`` and their negations as printf does, byte for byte."""
    values = np.asarray(values, np.float64)
    columns = {"v": Signal(values, 44100.0), "negated": Signal(-values, 44100.0)}
    path = tmp_path / "exact.csv"
    write_csv(path, columns)
    return path.read_bytes() == printf_csv(columns)


def decade(e: int, rng) -> list:
    """Values with printf exponent e: both ends of [10^e, 10^(e + 1)), mantissas of 1-9 significant digits, and at random."""
    first, last = float("1e%d" % e), np.nextafter(float("1e%d" % (e + 1)), 0.0)
    ends = [first, np.nextafter(first, 1.0), last, np.nextafter(last, 0.0)]
    ends += [float("%se%d" % (digits, e)) for digits in ("1.00000001", "1.000000005", "9.99999999", "9.999999994")]
    mantissas = [100000001, 100001000, 101000000, 100000010, 120000000, 123400000, 123450000, 123456700]
    mantissas += rng.integers(10**8, 10**9, 200).tolist()
    return ends + [float("%de%d" % (m, e - 8)) for m in mantissas]


# e = -1 to -4 are the leading-zero counts 1 to 4 of fixed notation; -5 to
# -14 exponent notation in NumPy; -15 and 9 go to printf.
@pytest.mark.parametrize("e", range(-15, 10))
def test_every_decade_equals_printf(tmp_path, rng, e):
    assert equals_printf(tmp_path, decade(e, rng))


def test_every_pcm16_value_equals_printf(tmp_path):
    assert equals_printf(tmp_path, np.arange(-32768, 32768) / 32768.0)


# k / 2^23 whose nine digits end in an exact half: k is an odd multiple of
# 2^(14 + e) for printf exponent e, down to e = -5, where only 2^-14 is one.
PCM24_TIES = np.arange(512, 2**23, 512) / 2.0**23
PCM24_TIES = PCM24_TIES[PCM24_TIES * 10.0 ** (8 - np.floor(np.log10(PCM24_TIES))) % 1 == 0.5]


def test_pcm24_ties_equal_printf(tmp_path):
    assert PCM24_TIES.min() == 2.0**-14 and PCM24_TIES.size > 500
    assert equals_printf(tmp_path, PCM24_TIES)


def exponent_range_near_ties() -> np.ndarray:
    """Doubles v in [1e-14, 1e-4) whose float product with 10^(8 - e) is a half-integer, unlike the exact one."""
    rng = np.random.default_rng(5)
    found = []
    for e in range(-14, -4):
        power = float(10 ** (8 - e))
        half = rng.integers(10**8, 10**9, 400) + 0.5
        v = half / power
        found.append(v[v * power == half])
    return np.concatenate(found)


def test_exponent_range_near_ties_equal_printf(tmp_path):
    assert equals_printf(tmp_path, exponent_range_near_ties())


def test_exact_ties_stay_in_numpy_and_inexact_ones_go_to_printf():
    # A product of a 24-bit value and a power of ten is exact in fixed
    # notation, so rint's half to even is printf's; 10091.38125 * 10^4
    # rounds to a half in float64 but is not one, so its mantissa is left to
    # printf (m = 0). Below 1e-4 only 2^-14 * 10^13 = 5^13 / 2 is an exact
    # tie; every other float tie there goes to printf.
    from ampenv.audio_io import _mantissa

    exact = np.append(PCM16_TIES, 2.0**-14)
    inexact = np.append([10091.38125, 12038.78975], exponent_range_near_ties())
    a = np.append(exact, inexact)
    x = np.floor(np.log10(a)).astype(np.int16) + 16
    m = np.empty(a.size)
    _mantissa(a, x, m, np.empty(a.size))
    assert m[: exact.size].tolist() == [int(("%.8e" % v)[:10].replace(".", "")) for v in exact]
    assert inexact.size > 1000 and not m[exact.size :].any()


def _decimal_ties():
    # K / 2^j with K odd has K * 5^j as its digits, ending in 5: ten of them
    # make a value exactly halfway between two 9-digit decimals.
    def ties(j):
        return st.integers(-(10**10 - 1) // 5**j, (10**10 - 1) // 5**j).filter(
            lambda k: k % 2 and abs(k) * 5**j >= 10**9
        ).map(lambda k: k / 2.0**j)

    return st.integers(1, 14).flatmap(ties)


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**15), 2**15).map(lambda k: k / 2.0**15),
    st.integers(-(2**23), 2**23).map(lambda k: k / 2.0**23),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
    _decimal_ties(),
)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(FINITE, min_size=1, max_size=40))
def test_every_finite_double_reads_back_as_printf(tmp_path, values):
    path = tmp_path / "values.csv"
    write_csv(path, {"v": Signal(values, 1.0)})
    rows = path.read_text().split("\n")
    assert rows[0] == "time_s,v" and rows[-1] == ""
    assert [row.split(",")[1] for row in rows[1:-1]] == ["%.9g" % v for v in values]


# -- Columns whose fields are taken from other values -------------------------
#
# write_csv builds digits only for the values that need them: a column that
# is bit for bit |previous column| in a block takes that column's fields, and
# a column of runs, such as the staircase of bunch peaks, one field per run.


def peak_hold(v: np.ndarray, bunch: int) -> np.ndarray:
    """The bunch peaks of |v|, each held over its bunch; the last bunch may be partial."""
    peaks = np.maximum.reduceat(np.abs(v), np.arange(0, v.size, bunch))
    return np.repeat(peaks, bunch)[: v.size]


def derived_columns(v: np.ndarray, bunch: int, w: np.ndarray) -> dict:
    """(v, |v|, the peak hold of v, w), the relations of the envelope CSV's columns."""
    return {name: Signal(column, 44100.0) for name, column in
            (("v", v), ("abs", np.abs(v)), ("hold", peak_hold(v, bunch)), ("w", w))}


def derived_values(kind: str, n: int, rng) -> np.ndarray:
    """n values of ``kind``, in random order and with random signs."""
    if kind == "edges":
        pool = np.array(EDGES, np.float64)
    elif kind == "printf":  # below 1e-14 (0 aside) and from 1e9 up
        pool = np.concatenate([10.0 ** rng.uniform(-300, -14, 200), 10.0 ** rng.uniform(9, 300, 200)])
    elif kind == "ties":  # inexact ties go to printf; exact ones stay
        pool = np.concatenate([[10091.38125, 12038.78975, 2.0**-14], exponent_range_near_ties(), PCM16_TIES])
    else:  # zeros of both signs among ordinary values
        pool = np.concatenate([[0.0, -0.0] * 50, rng.standard_normal(100)])
    v = rng.choice(pool, n)
    return np.where(rng.random(n) < 0.5, -v, v)


# Bunch sizes: 1, where the hold is the abs column itself; 7 and 200, whose
# runs cross the 4,096-row block edges; and 64, whose runs end at them.
# Every length leaves a trailing partial bunch but at 1 and 64.
@pytest.mark.parametrize("bunch", [1, 7, 64, 200])
@pytest.mark.parametrize("kind", ["edges", "printf", "ties", "zeros"])
def test_derived_columns_equal_printf(tmp_path, rng, kind, bunch):
    from ampenv.audio_io import _CSV_BLOCK

    n = 2 * _CSV_BLOCK + 64 * 5
    v = derived_values(kind, n, rng)
    # w holds values of both signs in runs, -0.0 and 0.0 among them.
    w = np.repeat(derived_values(kind, n // 3 + 1, rng), 3)[:n]
    columns = derived_columns(v, bunch, w)
    path = tmp_path / "derived.csv"
    write_csv(path, columns)
    assert path.read_bytes() == printf_csv(columns)


def test_column_equal_to_abs_in_some_blocks_equals_printf(tmp_path, rng):
    # The abs column equals |v| in the first block only: in the second one
    # value is negative, and in the third -0.0 stands where |v| is 0.0. The
    # last column equals |abs| in every block.
    from ampenv.audio_io import _CSV_BLOCK

    n = 3 * _CSV_BLOCK
    v = derived_values("edges", n, rng)
    v[-5:] = -0.0
    a = np.abs(v)
    a[_CSV_BLOCK + 100] = -1.0
    a[-5:] = -0.0
    columns = {"v": Signal(v, 44100.0), "abs": Signal(a, 44100.0), "abs_of_abs": Signal(np.abs(a), 44100.0)}
    path = tmp_path / "some_blocks.csv"
    write_csv(path, columns)
    assert path.read_bytes() == printf_csv(columns)


@pytest.mark.parametrize("n, bunch", [(4000, 35), (2 * 4096 + 100, 64), (4000, 1)])
def test_envelope_csv_builds_digits_for_three_columns_and_the_peaks(tmp_path, capsys, monkeypatch, n, bunch):
    # time, signal and envelope take n values each; abs takes the signal's
    # fields, and the staircase one field per bunch. Each bunch edge here is
    # also a block edge: a run across one is built once in each block. At
    # bunch size 1 the staircase is the abs column itself.
    from ampenv import audio_io

    built = []
    mantissa = audio_io._mantissa

    def counted(a, *rest):
        built.append(a.size)
        return mantissa(a, *rest)

    monkeypatch.setattr(audio_io, "_mantissa", counted)
    noise = np.random.default_rng(n + bunch).uniform(-1.0, 1.0, n)
    wav = tmp_path / "noise.wav"
    audio_io.write_wav(wav, Signal(noise, 44100.0), "float32")
    out = tmp_path / "noise.csv"
    assert main(["envelope", str(wav), "--bunch", str(bunch), "--cutoff", "300", "-o", str(out)]) == 0
    assert sum(built) == 3 * n + (-(-n // bunch) if bunch > 1 else 0)
    sig = read_wav(wav).channels[0]
    rectified, staircase, envelope = three_step_stages(sig, EnvelopeParams(bunch_size=bunch, cutoff_hz=300.0))
    assert out.read_bytes() == printf_csv(
        {"signal": sig, "abs": rectified, "staircase": staircase, "envelope": envelope}
    )

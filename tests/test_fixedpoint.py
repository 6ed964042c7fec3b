import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ternroll.fixedpoint import (
    ACT_FORMAT,
    SCALE_FORMAT,
    FixedPointFormat,
    SaturationCounter,
    quantize,
    saturate,
    shift_right_round,
)
from ternroll.network import ScaleShiftParams
from ternroll.pipeline import scale_shift

# ---------------------------------------------------------------------------
# Scalar reference: one Python integer at a time, exact at every width


def round_half_away(x: float | Fraction) -> int:
    """Round to nearest integer, ties away from zero, in exact arithmetic."""
    n = math.floor(abs(Fraction(x)) + Fraction(1, 2))
    return n if x >= 0 else -n


def saturate_ref(raw: int, fmt: FixedPointFormat, counter: SaturationCounter | None = None) -> int:
    if raw > fmt.raw_max:
        if counter is not None:
            counter.hit()
        return fmt.raw_max
    if raw < fmt.raw_min:
        if counter is not None:
            counter.hit()
        return fmt.raw_min
    return raw


def quantize_ref(x: float, fmt: FixedPointFormat, counter: SaturationCounter | None = None) -> int:
    return saturate_ref(round_half_away(Fraction(x) * fmt.scale), fmt, counter)


def test_defaults():
    assert ACT_FORMAT == FixedPointFormat(16, 4)
    assert SCALE_FORMAT == FixedPointFormat(16, 6)
    assert str(ACT_FORMAT) == "Q12.4"


def test_format_validation():
    with pytest.raises(ValueError):
        FixedPointFormat(16, 16)
    with pytest.raises(ValueError):
        FixedPointFormat(65, 4)
    with pytest.raises(ValueError):
        FixedPointFormat(8, -1)


def test_quantize_exact_one():
    assert quantize(1.0, ACT_FORMAT) == 16


def test_quantize_rounds_half_away():
    # 0.05 * 64 = 3.2 -> 3, representing 0.046875
    assert quantize(0.05, SCALE_FORMAT) == 3
    # exact ties round away from zero in both directions: 1.5 -> 2, 2.5 -> 3
    assert quantize([0.0234375, -0.0234375, 2.5 / 64, -2.5 / 64], SCALE_FORMAT).tolist() == [2, -2, 3, -3]


def test_quantize_saturates():
    counter = SaturationCounter()
    assert quantize([3000.0, -3000.0, 1.0], ACT_FORMAT, counter).tolist() == [32767, -32768, 16]
    assert counter.count == 2


def test_quantize_rejects_nan():
    with pytest.raises(ValueError):
        quantize(float("nan"), ACT_FORMAT)


def test_quantize_saturates_exactly_at_64_bits():
    # float64 cannot hold 2**63 - 1: a float clamp would give -2**63 for all three
    q58_6 = FixedPointFormat(64, 6)
    counter = SaturationCounter()
    assert quantize([1e300, 2.0**57, -1e300], q58_6, counter).tolist() == [2**63 - 1, 2**63 - 1, -(2**63)]
    assert counter.count == 3


def test_quantize_saturates_a_product_past_float64():
    counter = SaturationCounter()
    assert quantize([1e300, -1e300], FixedPointFormat(64, 63), counter).tolist() == [2**63 - 1, -(2**63)]
    assert counter.count == 2


def test_saturate_counts_clamped_values():
    counter = SaturationCounter()
    out = saturate(np.array([[5, -40000], [40000, 32767]]), ACT_FORMAT, counter)
    assert out.dtype == np.int64 and out.tolist() == [[5, -32768], [32767, 32767]]
    assert counter.count == 2


def test_saturate_keeps_the_memory_order_of_an_integer_array():
    # a conv layer's sums reach saturate transposed; a C-ordered copy of them
    # slowed the layers that read it
    x = (np.arange(-24, 24).reshape(6, 8) * 2000).T
    out = saturate(x, ACT_FORMAT)
    assert out.strides == x.strides
    assert out.tolist() == np.clip(x, -32768, 32767).tolist()


@st.composite
def _formats(draw):
    total = draw(st.integers(2, 64))
    return FixedPointFormat(total, draw(st.integers(0, total - 1)))


def _reals(fmt: FixedPointFormat):
    """Reals near the format's range and its rounding ties, huge values and +-0."""
    ties = st.integers(-(2**64), 2**64).map(lambda k: (k + 0.5) / fmt.scale)
    edges = st.sampled_from([fmt.raw_max, fmt.raw_min]).flatmap(
        lambda r: st.integers(-2, 2).map(lambda d: (r + d) / fmt.scale)
    )
    return st.one_of(
        ties, edges, st.sampled_from([0.0, -0.0, 1e300, -1e300]), st.floats(allow_nan=False, allow_infinity=False)
    )


@given(st.data())
def test_quantize_matches_scalar_reference(data):
    fmt = data.draw(_formats())
    xs = data.draw(st.lists(_reals(fmt), max_size=20))
    want_count, got_count = SaturationCounter(), SaturationCounter()
    want = [quantize_ref(x, fmt, want_count) for x in xs]
    got = quantize(np.array(xs, dtype=np.float64), fmt, got_count)
    assert got.dtype == np.int64
    assert got.tolist() == want
    assert got_count.count == want_count.count


@given(st.data())
def test_saturate_int64_matches_scalar_reference(data):
    fmt = data.draw(_formats())
    near = st.integers(-2, 2)
    edges = st.sampled_from([fmt.raw_max, fmt.raw_min]).flatmap(lambda r: near.map(lambda d: r + d))
    int64s = st.integers(-(2**63), 2**63 - 1)
    extremes = st.sampled_from([-(2**63), 2**63 - 1])
    raws = data.draw(st.lists(int64s | edges.filter(lambda v: -(2**63) <= v < 2**63) | extremes, max_size=20))
    want_count, got_count = SaturationCounter(), SaturationCounter()
    want = [saturate_ref(r, fmt, want_count) for r in raws]
    got = saturate(np.array(raws, dtype=np.int64), fmt, got_count)
    assert got.dtype == np.int64
    assert got.tolist() == want
    assert got_count.count == want_count.count


@given(_formats(), st.floats(allow_nan=False, allow_infinity=False))
@example(FixedPointFormat(56, 0), 2.0**52 + 1)
@example(FixedPointFormat(56, 0), -(2.0**52 + 1))
@example(FixedPointFormat(56, 0), 2.0**53 - 1)
@example(FixedPointFormat(56, 0), 0.49999999999999994)
@example(FixedPointFormat(64, 6), 1e300)
def test_quantize_rounds_as_exact_arithmetic_does(fmt, x):
    # floor(x + 0.5) rounds x + 0.5 in float64 first: 2**52 + 1 came out 2**52 + 2
    want_count, got_count = SaturationCounter(), SaturationCounter()
    assert quantize([x], fmt, got_count).tolist() == [quantize_ref(x, fmt, want_count)]
    assert got_count.count == want_count.count


@given(st.integers(-(2**15), 2**15 - 1))
def test_quantize_idempotent_on_representable(raw):
    assert quantize(raw / ACT_FORMAT.scale, ACT_FORMAT) == raw


@given(st.floats(-2000.0, 2000.0, allow_nan=False))
def test_quantize_error_bound(x):
    raw = quantize(x, ACT_FORMAT)
    assert abs(raw / ACT_FORMAT.scale - x) <= 2.0 ** (-ACT_FORMAT.frac_bits - 1)


def test_round_half_away():
    assert round_half_away(2.5) == 3
    assert round_half_away(-2.5) == -3
    assert round_half_away(2.4) == 2
    assert round_half_away(-2.4) == -2


@given(st.integers(-(2**40), 2**40), st.integers(1, 20))
def test_shift_right_round_matches_float(p, bits):
    want = round_half_away(p / (1 << bits))
    # float division is exact here: p fits in a double for this range
    assert shift_right_round(p, bits) == want


def test_shift_right_round_on_int64_ties():
    # +-(k + 1/2) * 2^bits round away from zero, the values beside a tie to nearest
    bits = 4
    k = np.array([0, 1, 2, 7, 2**40], dtype=np.int64)
    ties = (k << bits) + (1 << (bits - 1))
    for sign in (1, -1):
        for offset, want in ((-1, k), (0, k + 1), (1, k + 1)):
            got = shift_right_round(sign * (ties + offset), bits)
            assert got.dtype == np.int64
            assert got.tolist() == (sign * want).tolist()


def test_shift_right_round_zero_bits():
    assert shift_right_round(12345, 0) == 12345


@given(st.data())
def test_shift_right_round_on_float64_equals_int64(data):
    bits = data.draw(st.integers(1, 52))
    half = 1 << (bits - 1)
    limit = (1 << 53) - half  # the largest |p| that float64 shifts exactly
    ties = st.integers(0, (limit - half) >> bits).map(lambda k: (k << bits) + half)
    near = (ties | st.just(limit)).flatmap(lambda v: st.integers(-2, 2).map(lambda d: min(v + d, limit)))
    signed = st.builds(lambda v, sign: sign * v, near | st.integers(0, limit), st.sampled_from((1, -1)))
    p = np.array(data.draw(st.lists(signed, max_size=20)), dtype=np.int64)
    f = p.astype(np.float64)
    got = shift_right_round(f, bits)
    assert got.dtype == np.float64
    want = shift_right_round(p, bits).tolist()
    assert got.tolist() == want
    assert f.tolist() == p.tolist()  # a new array unless out is given
    # out=p divides in place, in either type
    for q in (f, p.copy()):
        assert shift_right_round(q, bits, out=q) is q
        assert q.tolist() == want


@given(st.data())
def test_saturate_on_float64_equals_int64(data):
    fmt = data.draw(_formats())
    exact = 1 << 53
    near = st.sampled_from([fmt.raw_max, fmt.raw_min, exact, -exact]).flatmap(
        lambda r: st.integers(-2, 2).map(lambda d: r + d)
    )
    # every integer float64 holds up to 2^53, and the ones within 2 past it
    held = (st.integers(-exact, exact) | near).filter(lambda v: abs(v) <= exact + 2 and float(v) == v)
    raws = data.draw(st.lists(held, max_size=20))
    want_count, got_count = SaturationCounter(), SaturationCounter()
    want = saturate(np.array(raws, dtype=np.int64), fmt, want_count)
    floats = np.array(raws, dtype=np.float64)
    got = saturate(floats, fmt, got_count)
    assert got is floats  # clamped in place
    assert got.tolist() == want.tolist()
    assert got_count.count == want_count.count


def _one_channel(x_raw: int, c: float, b: float, act: str = "None", counter=None) -> int:
    """scale_shift on a single-channel input: the scalar datapath."""
    (y,) = scale_shift([x_raw], ScaleShiftParams((c,), (b,)), act, SCALE_FORMAT, ACT_FORMAT, counter)
    return int(y)


def test_scale_shift_scalar_identity():
    # c = 1.0 is raw 64 in Q10.6; b = 0
    assert _one_channel(80, 1.0, 0.0) == 80


def test_scale_shift_scalar_constant():
    # c = 0, b = 5.0 -> raw 80 in Q12.4
    assert _one_channel(12345, 0.0, 5.0) == 80


def test_scale_shift_scalar_relu():
    assert _one_channel(-160, 1.0, 0.0, act="ReLU") == 0


def test_scale_shift_scalar_saturates():
    counter = SaturationCounter()
    # c = 32767 / 64 is the largest Q10.6 value, raw 32767
    assert _one_channel(32767, 32767 / 64, 0.0, counter=counter) == 32767
    assert counter.count == 1


@given(
    st.integers(-(2**15), 2**15 - 1),
    st.floats(-8.0, 8.0, allow_nan=False),
    st.floats(-100.0, 100.0, allow_nan=False),
)
def test_scale_shift_error_bound(x_raw, c, b):
    y = _one_channel(x_raw, c, b)
    exact = c * (x_raw / 16.0) + b
    if abs(exact) < 2000.0:  # stay clear of the saturation region
        # quantizing c and b plus the rounded product shift each cost at most
        # half an lsb of their formats
        bound = 2.0**-4 + abs(x_raw / 16.0) * 2.0**-6
        assert abs(y / 16.0 - exact) <= bound + 1e-9


@pytest.mark.parametrize(
    "xs, fmt",
    # 16 * 1.5 in Q2.62 is 1.5 * 2**66, which an int64 product wraps to 0;
    # 85 * 1.5 in Q8.56 is 255 * 2**55, and adding the rounding half 2**55 makes 2**63
    [([16, 32], FixedPointFormat(64, 62)), ([85, -85], FixedPointFormat(64, 56))],
)
def test_scale_shift_refuses_results_past_int64(xs, fmt):
    with pytest.raises(ValueError, match=rf"{fmt} .*Q12\.4.*int64"):
        scale_shift(xs, ScaleShiftParams((1.5, 1.5), (0, 0)), scale_fmt=fmt)


def test_scale_shift_just_inside_int64():
    # in Q8.56, 84 * 1.5 is 252 * 2**55; with the rounding half, 253 * 2**55 < 2**63
    fmt = FixedPointFormat(64, 56)
    params = ScaleShiftParams((1.5, -1.5), (-3.0, 2.0))
    xs = [84, -84]
    want = []
    for x, c, b in zip(xs, params.c, params.b):
        p = x * int(c * fmt.scale)
        q = (abs(p) + (fmt.scale >> 1)) >> fmt.frac_bits
        want.append(saturate_ref((q if p >= 0 else -q) + int(b * ACT_FORMAT.scale), ACT_FORMAT))
    assert scale_shift(xs, params, scale_fmt=fmt).tolist() == want == [78, 158]

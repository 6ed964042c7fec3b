import pytest
from hypothesis import given
from hypothesis import strategies as st

from ternroll.fixedpoint import (
    ACT_FORMAT,
    SCALE_FORMAT,
    FixedPointFormat,
    FixedValue,
    SaturationCounter,
    quantize,
    round_half_away,
    shift_right_round,
)
from ternroll.network import ScaleShiftParams
from ternroll.pipeline import scale_shift


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
    assert quantize(1.0, ACT_FORMAT).raw == 16


def test_quantize_rounds_half_away():
    # 0.05 * 64 = 3.2 -> 3, representing 0.046875
    v = quantize(0.05, SCALE_FORMAT)
    assert v.raw == 3
    assert v.to_float() == pytest.approx(0.046875)
    # exact tie rounds away from zero in both directions
    assert quantize(0.0234375, SCALE_FORMAT).raw == 2  # 1.5 -> 2
    assert quantize(-0.0234375, SCALE_FORMAT).raw == -2


def test_quantize_saturates():
    counter = SaturationCounter()
    assert quantize(3000.0, ACT_FORMAT, counter).raw == 32767
    assert quantize(-3000.0, ACT_FORMAT, counter).raw == -32768
    assert counter.count == 2


def test_quantize_rejects_nan():
    with pytest.raises(ValueError):
        quantize(float("nan"), ACT_FORMAT)


@given(st.integers(-(2**15), 2**15 - 1))
def test_quantize_idempotent_on_representable(raw):
    v = FixedValue(raw, ACT_FORMAT)
    assert quantize(v.to_float(), ACT_FORMAT).raw == raw


@given(st.floats(-2000.0, 2000.0, allow_nan=False))
def test_quantize_error_bound(x):
    v = quantize(x, ACT_FORMAT)
    assert abs(v.to_float() - x) <= 2.0 ** (-ACT_FORMAT.frac_bits - 1)


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


def test_shift_right_round_zero_bits():
    assert shift_right_round(12345, 0) == 12345


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

"""Two's-complement fixed-point formats and saturating quantization.

Fixed-point values are arrays of raw integers: int64, or float32 and float64
where every value is an integer the type represents exactly, as inside
``simulate``. Rounding everywhere is round-to-nearest with ties away from
zero. Saturation is silent; callers that care pass a SaturationCounter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FixedPointFormat:
    total_bits: int
    frac_bits: int

    def __post_init__(self) -> None:
        if not (0 <= self.frac_bits < self.total_bits <= 64):
            raise ValueError(
                f"need 0 <= frac_bits < total_bits <= 64, got Q{self.total_bits - self.frac_bits}.{self.frac_bits}"
            )

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @property
    def raw_min(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def raw_max(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    def __str__(self) -> str:
        return f"Q{self.total_bits - self.frac_bits}.{self.frac_bits}"


#: Default activation format: 12 integer bits, 4 fractional bits.
ACT_FORMAT = FixedPointFormat(16, 4)
#: Default scale-constant format: 10 integer bits, 6 fractional bits.
SCALE_FORMAT = FixedPointFormat(16, 6)


class SaturationCounter:
    """Mutable tally of saturation events, for diagnostics."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def hit(self, n: int = 1) -> None:
        self.count += n


def saturate(raw, fmt: FixedPointFormat, counter: SaturationCounter | None = None) -> np.ndarray:
    """Clamp raw values to the format, counting the values clamped. An int64
    array, or a float array of integers, is clamped in place in its type;
    other integers are copied to int64 first."""
    raw = np.asarray(raw)
    if raw.dtype.kind == "i" and raw.dtype != np.int64:
        raw = raw.astype(np.int64)
    if counter is not None:  # both bounds are exact in any float type, unlike raw_max
        counter.hit(int(np.count_nonzero(raw >= -fmt.raw_min)) + int(np.count_nonzero(raw < fmt.raw_min)))
    # raw_max may round up, but only past the integers the type holds exactly
    return np.clip(raw, fmt.raw_min, fmt.raw_max, out=raw)


def quantize(values, fmt: FixedPointFormat, counter: SaturationCounter | None = None) -> np.ndarray:
    """Raw int64 values of reals in the format: round half away from zero,
    then saturate. Exactly representable values are unchanged."""
    x = np.asarray(values, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError(f"cannot quantize non-finite values to {fmt}")
    with np.errstate(over="ignore"):  # a product past float64 saturates as +-inf
        x = x * fmt.scale
    # clipping keeps +-inf products saturating; t + trunc(2 * (x - t)) rounds
    # exactly, where floor(x + 0.5) would round x + 0.5 before the floor
    x = np.clip(x, -(2.0**64), 2.0**64)
    t = np.trunc(x)
    x = saturate(t + np.trunc(2 * (x - t)), fmt, counter)
    top = x >= -fmt.raw_min  # raw_max past 53 bits, which float64 rounded up
    return np.where(top, fmt.raw_max, np.where(top, 0, x).astype(np.int64))


def peak(x: np.ndarray) -> int:
    """max|x| of an integer or integer-valued array as a Python int, 0 when
    it is empty."""
    return max(-int(x.min(initial=0)), int(x.max(initial=0)))


def exact_type(bound: int) -> type | None:
    """The narrowest type that represents every integer of magnitude at most
    ``bound`` exactly: float32 below 2^24, float64 below 2^53, int64 below
    2^63; None past int64."""
    return next((t for t, bits in ((np.float32, 24), (np.float64, 53), (np.int64, 63)) if bound < 1 << bits), None)


def shift_right_round(p, bits: int, out: np.ndarray | None = None):
    """Divide an integer, or an array of integers in its type, by 2**bits,
    rounding to nearest with ties away from zero; floats need |p| + 2**(bits-1)
    exact. An array's quotient is written to ``out`` when given (``out=p``
    divides in place); with bits = 0 p itself is returned."""
    if bits == 0:
        return p
    # a negative p adds one less, so its ties floor away from zero too
    if not isinstance(p, np.ndarray):
        return (p + ((1 << (bits - 1)) - (p < 0))) >> bits
    if p.dtype.kind == "f":
        q = np.subtract(p, p < 0, out=out)
        q += 2.0 ** (bits - 1)
        q *= 2.0**-bits
        return np.floor(q, out=q)
    q = np.add(p, (1 << (bits - 1)) - (p < 0), out=out)
    return np.right_shift(q, bits, out=q)

"""Two's-complement fixed-point formats and saturating quantization.

Rounding everywhere is round-to-nearest with ties away from zero.
Quantization saturates silently; callers that care pass a SaturationCounter.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class FixedValue:
    raw: int
    fmt: FixedPointFormat

    def to_float(self) -> float:
        return self.raw / self.fmt.scale


def round_half_away(x: float) -> int:
    """Round to nearest integer, ties away from zero."""
    if x >= 0:
        return math.floor(x + 0.5)
    return math.ceil(x - 0.5)


def saturate(raw: int, fmt: FixedPointFormat, counter: SaturationCounter | None = None) -> int:
    if raw > fmt.raw_max:
        if counter is not None:
            counter.hit()
        return fmt.raw_max
    if raw < fmt.raw_min:
        if counter is not None:
            counter.hit()
        return fmt.raw_min
    return raw


def quantize(x: float, fmt: FixedPointFormat, counter: SaturationCounter | None = None) -> FixedValue:
    """Quantize a real to the format, exactly representable values unchanged."""
    if not math.isfinite(x):
        raise ValueError(f"cannot quantize non-finite value {x!r}")
    return FixedValue(saturate(round_half_away(x * fmt.scale), fmt, counter), fmt)


def shift_right_round(p, bits: int):
    """Divide an integer or an int64 array by 2**bits, rounding to nearest
    with ties away from zero."""
    if bits == 0:
        return p
    return np.sign(p) * ((np.abs(p) + (1 << (bits - 1))) >> bits)

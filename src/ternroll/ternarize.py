"""Threshold ternarization of float weight matrices.

The threshold is delta = epsilon * E(|w|) over the whole matrix; entries
strictly below it become zero, the rest keep their sign. The layer scaling
factor is the mean magnitude of the surviving entries. Comparison is strict
so epsilon = 0 keeps every nonzero weight.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .matrices import FloatMatrix, TernaryMatrix


def ternarize(w: FloatMatrix, epsilon: float) -> tuple[TernaryMatrix, float]:
    """Quantize weights to {-1, 0, +1} plus a scaling factor.

    Returns (t, s) with t_ij = 0 where |w_ij| < delta, sign(w_ij) elsewhere,
    and s the mean |w_ij| over surviving entries (0 if none survive).
    """
    _check(epsilon)
    a = w.entries
    magnitudes = np.abs(a)
    # sign(w) where |w| >= delta: +1 where w >= delta, -1 where w <= -delta,
    # and at delta = 0 a zero weight passes both tests, so 1 - 1 = 0
    delta = _delta(magnitudes, epsilon)
    t = (a >= delta).view(np.int8) - (a <= -delta).view(np.int8)
    t.flags.writeable = False
    survivors = magnitudes[t != 0]
    s = float(survivors.mean()) if survivors.size else 0.0
    return TernaryMatrix(t), s


def threshold(w: FloatMatrix, epsilon: float) -> float:
    """The ternarization threshold delta = epsilon * E(|w|)."""
    _check(epsilon)
    return _delta(np.abs(w.entries), epsilon)


def epsilon_error(epsilon: float) -> str | None:
    """Why ``epsilon`` cannot control a threshold, or None: it must be a
    finite number >= 0 (a NaN would compare false everywhere and zero every
    weight)."""
    if not (math.isfinite(epsilon) and epsilon >= 0):
        return f"epsilon must be a finite number >= 0, got {epsilon}"
    return None


def _check(epsilon: float) -> None:
    why = epsilon_error(epsilon)
    if why:
        raise ValueError(why)


def _delta(magnitudes: np.ndarray, epsilon: float) -> float:
    """delta = epsilon * E(|w|) from the magnitudes |w|."""
    return epsilon * float(magnitudes.mean())


def sparsity_sweep(w: FloatMatrix, eps_list: Sequence[float]) -> list[tuple[float, float]]:
    """Sparsity of ternarize(w, eps) per eps; non-decreasing in eps."""
    eps = list(eps_list)
    for e in eps:
        _check(e)
    if any(b < a for a, b in zip(eps, eps[1:])):
        raise ValueError("eps_list must be sorted ascending")
    return [(float(e), ternarize(w, e)[0].sparsity()) for e in eps]

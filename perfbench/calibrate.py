"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's timed metrics are given in reference seconds: the wall time
of an operation, scaled by ``REFERENCE_S / k``, where ``k`` is the time of
the kernel below measured next to the operation. On a shared host whose
speed changes by up to about 1.9x for tens of seconds at a time, the
operation and the kernel slow down together, so the scaled time stays put.
The kernel uses no ``ternroll`` code, so a change to the program cannot
move it. It mixes what the program spends its time on: dict and tuple work
(as in CSE), string building (as in netlist emission), small numpy calls
from a Python loop (as in the line buffer) and an int64 matrix product (as
in a conv layer).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# The kernel's median time, in seconds, on the 2-vCPU Intel Xeon (2.0 GHz)
# the benchmark was tuned on, in its faster state. A reference second is a
# second on that host in that state.
REFERENCE_S = 0.012

_rng = np.random.default_rng(20241)
_TERMS = [tuple(sorted(_rng.choice(96, size=12, replace=False).tolist())) for _ in range(160)]
_A = _rng.integers(-1, 2, size=(128, 288)).astype(np.int64)
_X = _rng.integers(-2048, 2048, size=(48, 288)).astype(np.int64)


def kernel() -> int:
    """One fixed amount of work; returns a checksum so none of it is skipped."""
    pairs: dict[tuple[int, int], int] = {}
    for row in _TERMS:
        for i, a in enumerate(row):
            for b in row[i + 1 :]:
                pairs[(a, b)] = pairs.get((a, b), 0) + 1
    best = max(pairs.items(), key=lambda kv: (kv[1], kv[0]))
    text = "\n".join(f"n{a}_{b} = ADD n{a} n{b} ; {c}" for (a, b), c in pairs.items())
    acc = np.zeros(24, dtype=np.int64)
    for i in range(400):
        acc = np.clip(acc + i, -(2**15), 2**15 - 1)
    prod = _X @ _A.T
    return best[1] + len(text) + int(acc.sum()) + int(prod[0, 0])


def measure(repeats: int) -> float:
    """Median seconds of ``repeats`` runs of the kernel."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Turns wall seconds into reference seconds.

    The kernel runs once on creation and again each time ``scale`` is
    called, right after the stretch it scales ends, so every stretch is
    bracketed by a measurement before it and one after it.
    """

    def __init__(self, repeats: int) -> None:
        self.repeats = repeats
        self.last = measure(repeats)
        self.kernel_s: list[float] = []  # the mean of the two around each stretch

    def scale(self, wall: float) -> float:
        before, self.last = self.last, measure(self.repeats)
        self.kernel_s.append((before + self.last) / 2)
        return wall * REFERENCE_S / self.kernel_s[-1]

"""Standard-basis evaluation, the reference for the path-expansion proof.

``evaluate`` runs an adder graph on one input vector. ``on_basis`` gives
the (outputs x inputs) int64 matrix of an adder graph's or a CSE result's
outputs on e_0 .. e_(n-1), its columns being the outputs on each basis
vector: a graph through ``evaluate_batch``, a result by substituting its rows
in order. Both are int64 and wrap as the node sums do. ``dense`` scatters an
``expansion()`` into the same dense matrix.
"""

import numpy as np

from ternroll import AdderGraph, evaluate_batch


def evaluate(g: AdderGraph, inputs) -> list[int]:
    """Exact signed evaluation on one input vector, in int64."""
    xs = np.asarray(list(inputs), dtype=np.int64).reshape(-1, 1)
    return [int(v) for v in evaluate_batch(g, xs)[:, 0]]


def on_basis(x) -> np.ndarray:
    if isinstance(x, AdderGraph):
        return evaluate_batch(x, np.eye(len(x.inputs), dtype=np.int64))
    n_in, start, sign, val = x.n_inputs, x.term_start.tolist(), x.term_sign, x.term_values()
    # row v: value v (the inputs, then the definitions, then the outputs) on the basis
    coeff = np.eye(len(start) - 1 + n_in, n_in, dtype=np.int64)
    for r, (lo, hi) in enumerate(zip(start, start[1:])):
        coeff[n_in + r] = sign[lo:hi].astype(np.int64) @ coeff[val[lo:hi]]
    return coeff[n_in + len(x.ids) :]


def dense(x) -> np.ndarray:
    rows, cols, coef = x.expansion()
    out = np.zeros(x.shape, dtype=np.int64)
    out[rows, cols] = coef
    return out


def first_difference(a: np.ndarray, b: np.ndarray) -> int | None:
    """The first column in which two equal-shaped matrices differ, or None."""
    bad = np.flatnonzero((a != b).any(axis=0))
    return int(bad[0]) if bad.size else None

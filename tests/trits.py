"""Seeded random trit matrices: the inputs of the CSE and netlist golden
corpora and of most tests."""

import numpy as np

from ternroll import TernaryMatrix


def random_ternary(rows: int, cols: int, sparsity: float, rng: np.random.Generator) -> TernaryMatrix:
    """Random trit matrix with the given expected fraction of zeros."""
    u = rng.random((rows, cols))
    signs = rng.integers(0, 2, size=(rows, cols), dtype=np.int8) * 2 - 1
    a = np.where(u < sparsity, np.int8(0), signs)
    return TernaryMatrix(a)

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ternroll.matrices import FloatMatrix, TernaryMatrix
from ternroll.ternarize import sparsity_sweep, ternarize, threshold


def test_hand_example():
    w = FloatMatrix(np.array([[0.5, -0.2, 0.9, 0.05]]))
    assert threshold(w, 0.7) == pytest.approx(0.28875)
    t, s = ternarize(w, 0.7)
    assert t.entries.tolist() == [[1, 0, 1, 0]]
    assert s == pytest.approx(0.7)


def test_eps_zero_keeps_signs(rng):
    w = FloatMatrix(rng.normal(size=(8, 8)))
    t, s = ternarize(w, 0.0)
    assert np.array_equal(t.entries, np.sign(w.entries).astype(np.int8))
    assert s == pytest.approx(np.abs(w.entries).mean())


def test_all_zero_weights():
    w = FloatMatrix(np.zeros((3, 3)))
    t, s = ternarize(w, 1.0)
    assert t.sparsity() == 1.0
    assert s == 0.0


def test_negative_eps_rejected():
    with pytest.raises(ValueError):
        ternarize(FloatMatrix(np.ones((1, 1))), -0.1)


NON_FINITE = pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])


@NON_FINITE
def test_non_finite_eps_rejected_by_ternarize(eps):
    with pytest.raises(ValueError, match=f"^epsilon must be a finite number >= 0, got {eps}$"):
        ternarize(FloatMatrix(np.ones((1, 1))), eps)


@NON_FINITE
def test_non_finite_eps_rejected_by_threshold(eps):
    with pytest.raises(ValueError, match=f"^epsilon must be a finite number >= 0, got {eps}$"):
        threshold(FloatMatrix(np.ones((1, 1))), eps)


@NON_FINITE
def test_non_finite_eps_rejected_by_sweep(eps):
    # a NaN compares false, so the ascending check alone let it through
    with pytest.raises(ValueError, match=f"^epsilon must be a finite number >= 0, got {eps}$"):
        sparsity_sweep(FloatMatrix(np.ones((2, 2))), [0.5, eps])


def test_boundary_is_strict():
    # mean |w| = 2.0, eps = 1.0 -> delta = 2.0; |w| == delta survives
    w = FloatMatrix(np.array([[1.0, 2.0, 3.0, 2.0]]))
    t, s = ternarize(w, 1.0)
    assert t.entries.tolist() == [[0, 1, 1, 1]]
    assert s == pytest.approx(7 / 3)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-10, 10, allow_nan=False, width=32), min_size=4, max_size=40),
    st.floats(0, 3, allow_nan=False),
)
def test_zero_iff_below_threshold(vals, eps):
    n = len(vals) - len(vals) % 2
    w = FloatMatrix(np.array(vals[:n], dtype=np.float64).reshape(2, -1))
    delta = threshold(w, eps)
    t, s = ternarize(w, eps)
    below = np.abs(w.entries) < delta
    assert np.array_equal(t.entries == 0, below | (w.entries == 0))
    # sign preservation
    nz = t.entries != 0
    assert np.array_equal(t.entries[nz], np.sign(w.entries[nz]).astype(np.int8))
    if nz.any() and delta > 0:
        assert s >= delta


def _reference_ternarize(w, epsilon):
    """ternarize in float64 from sign(w) and |w|, taken once per use."""
    a = w.entries
    keep = np.abs(a) >= threshold(w, epsilon)
    t = np.where(keep, np.sign(a), 0.0).astype(np.int8)
    survivors = np.abs(a)[keep & (np.sign(a) != 0)]
    s = float(survivors.mean()) if survivors.size else 0.0
    return TernaryMatrix(t), s


@st.composite
def _weights(draw):
    """A weight matrix with exact zeros (of both signs) and repeated
    magnitudes, and an epsilon that is 0, or one that puts delta on a
    magnitude of the matrix up to rounding."""
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 9)))
    values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -0.5]) | st.floats(-1e6, 1e6)
    w = FloatMatrix(draw(hnp.arrays(np.float64, shape, elements=values)))
    mean = float(np.abs(w.entries).mean())
    at = st.sampled_from(np.abs(w.entries).reshape(-1).tolist()).map(lambda v: v / mean if mean else 0.0)
    return w, draw(st.just(0.0) | at | st.floats(0, 4))


@settings(max_examples=300, deadline=None)
@given(case=_weights())
@example(case=(FloatMatrix(np.zeros((3, 2))), 1.0))
@example(case=(FloatMatrix(np.array([[0.0, -0.0, 1.0, -2.0]])), 0.0))
@example(case=(FloatMatrix(np.array([[1.0, 2.0, 3.0, -2.0]])), 1.0))  # delta = 2 exactly
def test_ternarize_equals_the_float64_sign_formula(case):
    w, eps = case
    t, s = ternarize(w, eps)
    want_t, want_s = _reference_ternarize(w, eps)
    assert t == want_t
    assert s == want_s  # bit for bit: the same survivors, in the same order


def test_sweep_monotone_gaussian(rng):
    w = FloatMatrix(rng.normal(size=(64, 576)))
    grid = [0.7, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8]
    res = sparsity_sweep(w, grid)
    sparsities = [sp for _, sp in res]
    assert sparsities == sorted(sparsities)
    # strictly increasing on a continuous random draw over this wide grid
    assert sparsities[0] < sparsities[-1]


def test_sweep_eps_zero_counts_exact_zeros(rng):
    a = rng.normal(size=(6, 6))
    a[0, :3] = 0.0
    w = FloatMatrix(a)
    res = sparsity_sweep(w, [0.0])
    assert res[0][1] == pytest.approx(3 / 36)


def test_sweep_repeated_eps_deterministic(rng):
    w = FloatMatrix(rng.normal(size=(10, 10)))
    res = sparsity_sweep(w, [1.0, 1.0, 1.0])
    assert res[0][1] == res[1][1] == res[2][1]


def test_sweep_requires_sorted():
    w = FloatMatrix(np.ones((2, 2)))
    with pytest.raises(ValueError):
        sparsity_sweep(w, [1.0, 0.5])

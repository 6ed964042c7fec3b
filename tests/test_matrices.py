import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ternroll.matrices import (
    FloatMatrix,
    MatrixFormatError,
    TernaryMatrix,
    format_tmx,
    parse_fmx,
    parse_tmx,
)
from ternroll.pipeline import ImageStream, patch_matrix

from . import tmx_ref
from .trits import random_ternary
from .writers import format_fmx


def test_sparsity_all_zero():
    m = TernaryMatrix(np.zeros((4, 4), dtype=np.int8))
    assert m.sparsity() == 1.0


def test_sparsity_filter_row(filter_matrix):
    assert filter_matrix.sparsity() == pytest.approx(4 / 9)


def test_sparsity_diagonal():
    m = TernaryMatrix(np.eye(3, dtype=np.int8))
    assert m.sparsity() == pytest.approx(6 / 9)


def test_entry_validation():
    with pytest.raises(ValueError):
        TernaryMatrix(np.array([[0, 2]], dtype=np.int8))
    with pytest.raises(ValueError):
        TernaryMatrix(np.zeros((0, 3), dtype=np.int8))
    with pytest.raises(ValueError):
        FloatMatrix(np.array([[np.inf, 1.0]]))


@pytest.mark.parametrize(
    "make, value, dtype",
    [
        (TernaryMatrix, np.array([[257, 0]]), "int8"),  # wraps to 1
        (TernaryMatrix, [[1.7, -1.2]], "int8"),  # truncates to 1, -1
        (TernaryMatrix, np.array([[255, 0]], dtype=np.uint8), "int8"),  # wraps to -1
        (TernaryMatrix, [[300, 0]], "int8"),
        (FloatMatrix, [[(1 << 53) + 1, 0]], "float64"),  # rounds to 2^53
        (ImageStream, [[[0.5, 2]]], "int64"),
    ],
    ids=["int64-257", "float-1.7", "uint8-255", "list-300", "int-2^53+1", "img-0.5"],
)
def test_value_types_refuse_a_cast_that_changes_a_value(make, value, dtype):
    with pytest.raises(ValueError, match=f"a value changes when cast to {dtype}$"):
        make(value)


def test_complex_input_is_refused_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for make, value in ((FloatMatrix, [[1 + 1j]]), (ImageStream, [[[1 + 1j]]])):
            with pytest.raises(ValueError, match="a value changes when cast to"):
                make(value)
        assert TernaryMatrix([[1 + 0j]]) == TernaryMatrix([[1]])


def test_immutable():
    m = TernaryMatrix(np.zeros((2, 2), dtype=np.int8))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 1


# (type, arguments, arguments of an unequal value) of each array value type
VALUES = [
    (TernaryMatrix, ([[1, 0, -1], [0, 1, 1]],), ([[1, 0, -1], [0, 1, 0]],)),
    (FloatMatrix, ([[0.5, -2.0], [1.0, 3.0]],), ([[0.5, -2.0], [1.0, 3.25]],)),
    (ImageStream, ([[[1, 2]], [[3, 4]]],), ([[[1, 2]], [[3, 5]]],)),
    (ImageStream, ([[[1, 2]], [[3, 4]]], 4), ([[[1, 2]], [[3, 4]]], 5)),
]


@pytest.mark.parametrize("make, args, other", VALUES, ids=["tmx", "fmx", "img", "img-frac_bits"])
def test_value_types_compare_by_value(make, args, other):
    assert make(*args) == make(*args)
    assert make(*args) != make(*other)
    assert make(*args) != args[0]


@pytest.mark.parametrize("make, args", [v[:2] for v in VALUES[:3]], ids=["tmx", "fmx", "img"])
def test_value_types_take_their_own_read_only_arrays_and_copy_others(make, args):
    (field,) = make.ARRAYS
    x = make(*args)
    a = getattr(x, field)
    assert not a.flags.writeable
    assert getattr(make(a), field) is a  # read-only, of the dtype and owning its data
    assert getattr(make(a[:1]), field).base is None  # a view is copied
    w = a.copy()
    y = make(w)
    w[(0,) * w.ndim] += 1
    assert y == x and not getattr(y, field).flags.writeable


def test_tmx_round_trip(rng):
    m = random_ternary(5, 7, 0.5, rng)
    assert parse_tmx(format_tmx(m)) == m


def test_tmx_format_example():
    m = TernaryMatrix(np.array([[1, 0], [-1, 1]], dtype=np.int8))
    assert format_tmx(m) == "tmx 2 2\n+0\n-+\n"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "tmx 2\n+0\n-+\n",
        "fmx 2 2\n+0\n-+\n",
        "tmx 2 2\n+0\n",
        "tmx 2 2\n+00\n-+\n",
        "tmx 2 2\n+0\n-x\n",
        "tmx 2 2\n+0\n-+\n+0\n",
        "tmx 0 2\n",
        "tmx 1_0 1\n+\n",  # int() reads 10
        "tmx 1 1_0\n+\n",
        "tmx \u0661 1\n+\n",  # Arabic-Indic one
        "tmx +1 1\n+\n",
    ],
)
def test_tmx_strict_errors(text):
    with pytest.raises(MatrixFormatError):
        parse_tmx(text)


def test_fmx_round_trip(rng):
    m = FloatMatrix(rng.normal(size=(3, 4)))
    assert parse_fmx(format_fmx(m)) == m


@pytest.mark.parametrize(
    "text",
    [
        "",
        "fmx 1 2\n0.5\n",
        "fmx 1 2\n0.5 x\n",
        "fmx 1 1\n0.5 0.5\n",
        "tmx 1 1\n0.5\n",
        "fmx 1_0 1\n0.5\n",
        "fmx 1 \u0661\n0.5\n",
        *(f"fmx 1 2\n0.5 {v}\n" for v in ["1_0", "\u0663", "nan", "inf", "-Infinity", "0x10", "1e", "e5", ".", "--1", "1.5.2"]),
    ],
)
def test_fmx_strict_errors(text):
    with pytest.raises(MatrixFormatError):
        parse_fmx(text)


def test_fmx_value_grammar_accepts_signs_points_and_exponents():
    m = parse_fmx("fmx 1 7\n-1 +2 3. .5 -0.25 1e3 +2.5E-1\n")
    assert m.entries.tolist() == [[-1.0, 2.0, 3.0, 0.5, -0.25, 1000.0, 0.25]]


# Text close to valid tmx and fmx files, or any text.
HEAD = st.sampled_from(["tmx", "fmx", "tmx 1", "1 2", "2 1", "1_0 1", "\u0661 2", "0 2", "2 2 2"])
TMX_ROW = st.text(alphabet="+-0x \u0661", max_size=3)
FMX_ROW = st.lists(
    st.sampled_from(["0.5", "-1e3", "+2", ".5", "7.", "1_0", "nan", "1e999", "\u0663", "0x1", "-"])
    | st.floats().map(repr),
    max_size=3,
).map(" ".join)


def _text(tag, rows):
    return st.builds(lambda head, body: "\n".join([f"{tag} {head}", *body]), HEAD, st.lists(rows, max_size=3)) | st.text()


def _outcome(parse, text):
    """The parsed entries, or the format error's message."""
    try:
        return parse(text).entries.tolist()
    except MatrixFormatError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(text=_text("tmx", TMX_ROW))
def test_parse_tmx_parses_or_raises_its_format_error(text):
    assert _outcome(parse_tmx, text) == _outcome(tmx_ref.parse_tmx, text)
    try:
        m = parse_tmx(text)
    except MatrixFormatError:
        return
    assert np.array_equal(parse_tmx(format_tmx(m)).entries, m.entries)


_TRITS = hnp.arrays(np.int8, st.tuples(st.integers(1, 6), st.integers(1, 12)), elements=st.integers(-1, 1))


@settings(max_examples=200, deadline=None)
@given(entries=_TRITS)
def test_tmx_text_equals_the_per_character_reference(entries):
    m = TernaryMatrix(entries)
    text = format_tmx(m)
    assert text == tmx_ref.format_tmx(m)
    assert np.array_equal(parse_tmx(text).entries, m.entries)


@settings(max_examples=400, deadline=None)
@given(entries=_TRITS, data=st.data())
def test_tmx_parse_equals_the_reference_on_corrupted_text(entries, data):
    # a valid file with a few characters replaced, dropped or added: either
    # parser returns the same matrix or raises the same message
    text = list(format_tmx(TernaryMatrix(entries)))
    for _ in range(data.draw(st.integers(1, 3))):
        spot = data.draw(st.integers(0, len(text) - 1))
        ch = data.draw(st.sampled_from(["", "x", " ", "\n", "\r", "\x0b", "\x85", "\u0661", "+", "-", "0", "++"]))
        text[spot] = ch if data.draw(st.booleans()) else text[spot] + ch
    text = "".join(text)
    assert _outcome(parse_tmx, text) == _outcome(tmx_ref.parse_tmx, text)


@settings(max_examples=300, deadline=None)
@given(text=_text("fmx", FMX_ROW))
def test_parse_fmx_parses_or_raises_its_format_error(text):
    try:
        m = parse_fmx(text)
    except MatrixFormatError:
        return
    assert np.array_equal(parse_fmx(format_fmx(m)).entries, m.entries)


def test_matvec_exact(rng):
    m = random_ternary(6, 9, 0.4, rng)
    x = rng.integers(-(2**15), 2**15, size=9)
    assert np.array_equal(m.matvec(x), m.entries.astype(np.int64) @ x)


def test_matvec_in_column_blocks(rng):
    # 1000 columns of x: whole and partial column blocks in BLAS's kernels
    m = random_ternary(3, 600, 0.4, rng)
    x = rng.integers(-(2**15), 2**15, size=(600, 1000))
    assert np.array_equal(m.matvec(x), m.entries.astype(np.int64) @ x)


INT64_MAX = (1 << 63) - 1


@st.composite
def _matvec_cases(draw):
    """A trit matrix and an int64 x whose bound B = max(1, most nonzeros in
    a row) * max|x| lands just below or above 2^24, 2^53 or 2^63, or whose
    peak is an int64 extreme."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 40))
    entries = draw(hnp.arrays(np.int8, (rows, cols), elements=st.integers(-1, 1)))
    per_row = np.count_nonzero(entries, axis=1)
    nnz = max(1, int(per_row.max()))
    tier_ends = st.sampled_from((1 << 24, 1 << 53, 1 << 63))
    near = st.builds(lambda t, d: t // nnz + d, tier_ends, st.integers(-2, 2))
    peak = min(draw(near | st.sampled_from((INT64_MAX, 1 << 63))), 1 << 63)  # 2^63: int64 min
    shape = draw(st.sampled_from(((cols,), (cols, 1), (cols, 3))))
    small = min(peak, INT64_MAX)
    x = draw(hnp.arrays(np.int64, shape, elements=st.integers(-small, small))).astype(object)
    if draw(st.booleans()):
        # signs follow the fullest row, so its sum nears B with low bits set
        row = entries[int(per_row.argmax())].astype(object)
        offsets = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 3))).astype(object)
        x = (row * (small - offsets).T).T
    spot = draw(st.integers(0, x.size - 1))
    x.flat[spot] = -peak if peak > INT64_MAX else draw(st.sampled_from((peak, -peak)))
    return TernaryMatrix(entries), np.array(x, dtype=np.int64)


# one row of three nonzeros: a signed sum of three values
_SUM_ROW = TernaryMatrix(np.array([[1, 1, -1, 0]]))


@settings(max_examples=400, deadline=None)
@given(case=_matvec_cases())
# a signed sum of 2^24 + 1, which float32 cannot represent
@example(case=(_SUM_ROW, np.array([1 << 23, (1 << 23) + 2, 1, 5])))
# an all-zero matrix counts one nonzero in B, so |x| near 2^62 takes int64
@example(case=(TernaryMatrix(np.zeros((3, 2))), np.array([[(1 << 62) - 1, 7], [-(1 << 62), (1 << 62) + 1]])))
# float64 as two float32 digits of 22 bits, x and -x: each row's sum over
# digits of 23 bits would be 3 (2^23 - 1), odd and past 2^24
@example(case=(_SUM_ROW, np.array([[1, -1], [1, -1], [-1, 1], [5, -5]]) * ((1 << 23) - 1)))
# three digits of 18 bits: 39 nonzeros times digits of 19 bits, 2^19 - 1,
# would be odd and past 2^24
@example(case=(TernaryMatrix(np.r_[np.ones(39), 0][None]), np.full(40, (1 << 36) + (1 << 19) - 1)))
# a bound of 3 (2^53 - 1) // 3 = 2^53 - 2, just below 2^53: three digits
@example(case=(_SUM_ROW, np.array([1, 1, -1, 0]) * (((1 << 53) - 1) // 3)))
def test_matvec_equals_python_int_product_or_refuses(case):
    m, x = case
    peak = max(-int(x.min()), int(x.max()))
    bound = max(1, int(np.count_nonzero(m.entries, axis=1).max())) * peak
    if bound >= 1 << 63:
        with pytest.raises(ValueError, match=rf"{m.rows}x{m.cols} product .*{bound}"):
            m.matvec(x)
        return
    tiers = ((np.float32, 24), (np.float64, 53), (np.int64, 63))
    dtype = m.product_dtype(x)
    assert dtype is next(t for t, bits in tiers if bound < 1 << bits)
    want = (m.entries.astype(object) @ x.astype(object)).tolist()
    got = m.matvec(x)
    assert got.dtype == np.int64
    assert got.tolist() == want
    # product computes and returns in x's own type
    got = m.product(x.T.astype(dtype))
    assert got.dtype == dtype
    assert got.T.tolist() == want


@st.composite
def _map_cases(draw):
    """A trit matrix over k x k windows of C channels, and an (H, W, C) map,
    its patch matrix or one patch. Each channel's peak is quiet, but one
    channel's puts a row's per-channel bound within a few nonzeros of
    2^24; half the maps hold that row's signs at those peaks in one window,
    so the row's sum there is its bound."""
    k, c, rows = draw(st.sampled_from((1, 3))), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    entries = draw(hnp.arrays(np.int8, (rows, k * k * c), elements=st.integers(-1, 1)))
    counts = np.count_nonzero(entries.reshape(rows, -1, c), axis=1)
    peaks = draw(st.lists(st.integers(0, 1 << 12), min_size=c, max_size=c))
    loud = draw(st.integers(0, c - 1))
    row = int(counts[:, loud].argmax())
    if counts[row, loud]:
        rest = sum(int(n) * p for ch, (n, p) in enumerate(zip(counts[row], peaks)) if ch != loud)
        peaks[loud] = max(0, ((1 << 24) - rest) // int(counts[row, loud]) + draw(st.integers(-2, 2)))
    p = np.array(peaks, dtype=np.int64)
    size = k + draw(st.integers(0, 2))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(-p, p, size=(size, size, c), endpoint=True)
    if draw(st.booleans()):
        x[:k, :k] = entries[row].reshape(k, k, c) * p
    else:
        x[-1, -1] = p * draw(st.sampled_from((1, -1)))
    form = draw(st.sampled_from(("map", "patches", "patch")))
    if form != "map":
        x = patch_matrix(ImageStream(x), k)
        x = x[draw(st.integers(0, len(x) - 1))] if form == "patch" else x
    return TernaryMatrix(entries), x, k


# one row over 3x3 windows of two channels, (channel 0, channel 1) per
# window position: two taps of channel 0 and nine of channel 1
_TWO_CHANNELS = TernaryMatrix(np.array([[1, 1, 0, -1, 0, 1, 0, 1, -1, -1, 0, 1, 0, 1, 0, -1, 0, 1]]))


def _two_channel_map(loud: int, quiet: int) -> np.ndarray:
    """A 3x3x2 map whose centre window is the one row's signs at these peaks."""
    return _TWO_CHANNELS.entries.reshape(3, 3, 2) * np.array([loud, quiet], dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(case=_map_cases())
# 11 nonzeros x (2^22 + 1) passes 2^24, but 2 x (2^22 + 1) + 9 x 1000 does not: float32
@example(case=(_TWO_CHANNELS, _two_channel_map((1 << 22) + 1, 1000), 3))
# 2 x (2^23 - 9) + 9 x 2 is exactly 2^24: not float32
@example(case=(_TWO_CHANNELS, _two_channel_map((1 << 23) - 9, 2), 3))
# the same values as one patch and as a patch matrix keep the row-count rule
@example(case=(_TWO_CHANNELS, _two_channel_map((1 << 22) + 1, 1000).reshape(-1), 3))
@example(case=(_TWO_CHANNELS, patch_matrix(ImageStream(_two_channel_map((1 << 22) + 1, 1000)), 3), 3))
def test_product_dtype_bounds_a_map_by_its_channel_peaks(case):
    m, x, k = case
    peak = max(-int(x.min()), int(x.max()))
    bound = max(1, int(np.count_nonzero(m.entries, axis=1).max())) * peak
    want = next(t for t, bits in ((np.float32, 24), (np.float64, 53), (np.int64, 63)) if bound < 1 << bits)
    patches = x
    if x.ndim == 3:
        c = x.shape[2]
        peaks = [max(-int(x[..., ch].min()), int(x[..., ch].max())) for ch in range(c)]
        counts = np.count_nonzero(m.entries.reshape(m.rows, -1, c), axis=1).tolist()
        if max(sum(n * p for n, p in zip(row, peaks)) for row in counts) < 1 << 24:
            want = np.float32
        patches = patch_matrix(ImageStream(x), k)
    assert m.product_dtype(x) is want
    got = m.product(patches.astype(want))
    assert got.dtype == want
    assert got.tolist() == (patches.astype(object) @ m.entries.T.astype(object)).tolist()

import dataclasses
from fractions import Fraction

import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ternroll import (
    ACT_FORMAT,
    SCALE_FORMAT,
    FixedPointFormat,
    FloatMatrix,
    ImageStream,
    LayerSpec,
    NetworkSpec,
    SaturationCounter,
    ScaleShiftParams,
    TernaryMatrix,
    bu_cse,
    build_tree,
    max_pool,
    no_cse,
    op_count,
    quantize,
    scale_shift,
    simulate,
    ternarize,
    throughput_model,
    vgg7_cifar10,
)
from ternroll import pipeline
from ternroll.pipeline import (
    ImageFormatError,
    load_img,
    parse_img,
    patch_matrix,
)

from . import pipeline_ref, straightline_ref
from .pipeline_ref import WindowBuffer
from .trits import random_ternary
from .writers import dump_img, format_img


def gather_oracle(img: ImageStream, kernel: int) -> np.ndarray:
    pad = kernel // 2
    out = []
    for i in range(img.height):
        for j in range(img.width):
            p = np.zeros((kernel, kernel, img.channels), dtype=np.int64)
            for q in range(kernel):
                for r in range(kernel):
                    a, b = i + q - pad, j + r - pad
                    if 0 <= a < img.height and 0 <= b < img.width:
                        p[q, r] = img.data[a, b]
            out.append(p.reshape(-1))
    return np.stack(out)


# ---------------------------------------------------------------------------
# Buffering


def test_column_taps_at_pixel_27():
    img = ImageStream(np.arange(36).reshape(6, 6, 1))
    buf = WindowBuffer(6, 6, 1, 3)
    pixels = list(img.data.reshape(-1, img.channels))
    taps = {}
    for n in range(buf.total_pushes()):
        px = pixels[n] if n < 36 else np.zeros(1, dtype=np.int64)
        buf.push(px)
        taps[n] = tuple(int(t[0]) for t in buf.last_column_taps)
    assert taps[27] == (27, 21, 15)


def test_one_patch_per_cycle_after_warmup():
    img = ImageStream(np.arange(36).reshape(6, 6, 1))
    buf = WindowBuffer(6, 6, 1, 3)
    pixels = list(img.data.reshape(-1, img.channels))
    emitted = []
    for n in range(buf.total_pushes()):
        px = pixels[n] if n < 36 else np.zeros(1, dtype=np.int64)
        emitted.append(buf.push(px) is not None)
    warmup = 6 + 1  # one row plus one pixel for a 3x3 window
    assert emitted == [False] * warmup + [True] * 36


def test_patches_match_gather_oracle(rng):
    img = ImageStream(rng.integers(-200, 200, size=(8, 8, 3)))
    assert np.array_equal(patch_matrix(img, 3), gather_oracle(img, 3))


def test_1x1_kernel_patches_are_pixels(rng):
    img = ImageStream(rng.integers(-10, 10, size=(5, 5, 2)))
    assert np.array_equal(patch_matrix(img, 1), img.data.reshape(-1, img.channels))


def test_window_rejects_even_or_oversize_kernel():
    with pytest.raises(ValueError):
        WindowBuffer(6, 6, 1, 2)
    with pytest.raises(ValueError):
        WindowBuffer(2, 2, 1, 3)
    with pytest.raises(ValueError, match="must be odd"):
        patch_matrix(ImageStream(np.zeros((6, 6, 1))), 2)
    with pytest.raises(ValueError, match="exceeds image 2x4"):
        patch_matrix(ImageStream(np.zeros((4, 2, 1))), 3)


def test_patch_layout_row_col_channel():
    img = ImageStream(np.arange(18).reshape(3, 3, 2))
    # centre patch of a 3x3 image covers the whole image in (q, r, ch) order
    assert patch_matrix(img, 3)[4].tolist() == list(range(18))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(1, 3),
    st.sampled_from([1, 3, 5, 7, 9]),
    st.integers(0, 2**32 - 1),
)
def test_line_buffer_emits_the_patch_matrix(h, w, c, k, seed):
    k = min(k, (min(h, w) - 1) | 1)  # clamped to the largest odd kernel that fits
    img = ImageStream(np.random.default_rng(seed).integers(-(2**15), 2**15, size=(h, w, c)))
    assert np.array_equal(np.stack(list(pipeline_ref.window_stream(img, k))), patch_matrix(img, k))


# ---------------------------------------------------------------------------
# Max pool


def test_pool_6x6_stride2_gives_3x3(rng):
    img = ImageStream(rng.integers(0, 100, size=(6, 6, 1)))
    out = max_pool(img, 2, 2)
    assert (out.height, out.width) == (3, 3)


def test_pool_constant_image():
    img = ImageStream(np.full((4, 4, 3), 7))
    out = max_pool(img, 2, 2)
    assert (out.data == 7).all()


def test_pool_matches_direct_oracle(rng):
    img = ImageStream(rng.integers(-500, 500, size=(4, 4, 2)))
    out = max_pool(img, 2, 2)
    for i in range(2):
        for j in range(2):
            for ch in range(2):
                want = img.data[2 * i : 2 * i + 2, 2 * j : 2 * j + 2, ch].max()
                assert out.data[i, j, ch] == want


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_pool_matches_per_pixel_loop(k, n, oh, ow, c, seed):
    # k > n overlaps windows and truncates the last ones at the edge; k < n skips pixels
    img = ImageStream(np.random.default_rng(seed).integers(-(2**15), 2**15, size=(oh * n, ow * n, c)))
    want = pipeline_ref.max_pool(img, k, n)
    assert np.array_equal(max_pool(img, k, n).data, want)
    # simulate pools the stream in its own type, padding with that type's lowest value
    got = pipeline._pool(img.data.astype(np.float32), k, n)
    assert got.dtype == np.float32
    assert np.array_equal(got, want)


def test_pool_requires_divisible_stride(rng):
    img = ImageStream(rng.integers(0, 5, size=(5, 5, 1)))
    with pytest.raises(ValueError):
        max_pool(img, 2, 2)


# ---------------------------------------------------------------------------
# Scale and shift


def test_scale_shift_identity():
    p = ScaleShiftParams((1.0, 1.0), (0.0, 0.0))
    x = np.array([80, -160])
    assert np.array_equal(scale_shift(x, p), x)


def test_scale_shift_constant():
    p = ScaleShiftParams((0.0,), (5.0,))
    assert scale_shift(np.array([12345]), p).tolist() == [80]


def test_scale_shift_relu_and_saturation():
    p = ScaleShiftParams((1.0, 1000.0), (0.0, 0.0))
    counter = SaturationCounter()
    y = scale_shift(np.array([-80, 32000]), p, act="ReLU", counter=counter)
    assert y.tolist() == [0, 32767]
    assert counter.count == 1


@pytest.mark.parametrize("act_fmt", [FixedPointFormat(16, 4), FixedPointFormat(40, 4), FixedPointFormat(60, 4)])
def test_public_blocks_return_int64_on_int64_input(rng, act_fmt):
    # simulate keeps its stream in float32, float64 or int64; the public blocks stay int64
    img = ImageStream(rng.integers(-(2**11), 2**11, size=(4, 4, 2)), act_fmt.frac_bits)
    params = ScaleShiftParams((1.5, -0.75), (2.0, -1.0))
    for act in ("None", "ReLU"):
        assert scale_shift(img.data, params, act, act_fmt=act_fmt).dtype == np.int64
    assert max_pool(img, 2, 2).data.dtype == np.int64
    patches = patch_matrix(img, 3)
    assert patches.dtype == np.int64
    assert random_ternary(3, 18, 0.4, rng).matvec(patches.T).dtype == np.int64


def test_scale_shift_float_reference_bound(rng):
    for _ in range(50):
        x = rng.integers(-(2**15), 2**15, size=8)
        c = rng.uniform(-4, 4, size=8)
        b = rng.uniform(-50, 50, size=8)
        p = ScaleShiftParams(tuple(c), tuple(b))
        y = scale_shift(x, p)
        exact = c * (x / 16.0) + b
        mask = np.abs(exact) < 1800  # clear of saturation
        bound = 2.0**-4 + np.abs(x / 16.0) * 2.0**-6 + 2.0**-5
        assert (np.abs(y / 16.0 - exact) <= bound + 1e-9)[mask].all()


# ---------------------------------------------------------------------------
# Dense


def dense_net(inputs: int, outputs: int) -> NetworkSpec:
    """A vector network: one Dense layer, then an identity ScaleShift."""
    return NetworkSpec((LayerSpec("Dense", 1, inputs, filters=outputs), LayerSpec("ScaleShift", 1, outputs)))


def identity_weights(t: TernaryMatrix) -> dict:
    return {0: t, 1: ScaleShiftParams((1.0,) * t.rows, (0.0,) * t.rows)}


def test_dense_identity_rows_select(rng):
    t = TernaryMatrix(np.eye(4, dtype=np.int8))
    x = rng.integers(-100, 100, size=4)
    res = simulate(dense_net(4, 4), identity_weights(t), ImageStream(x.reshape(1, 1, 4)))
    assert res.scores == tuple(x)


def test_dense_matches_matvec_oracle(rng):
    t = random_ternary(10, 64, 0.6, rng)
    x = rng.integers(-50, 50, size=64)
    want = t.entries.astype(np.int64) @ x
    res = simulate(dense_net(64, 10), identity_weights(t), ImageStream(x.reshape(1, 1, 64)))
    assert res.scores == tuple(np.clip(want, -32768, 32767))


def test_dense_dimension_mismatch(rng):
    t = random_ternary(3, 8, 0.5, rng)
    with pytest.raises(ValueError, match="dense weights are 3x8, layer needs 3x9"):
        simulate(dense_net(9, 3), identity_weights(t), ImageStream(np.zeros((1, 1, 9), dtype=np.int64)))


def test_dense_rows_must_match_filters(rng):
    # a 5x4 matrix gave five scores for a layer of three filters
    net = NetworkSpec((LayerSpec("Mux", 2, 1), LayerSpec("Dense", 1, 4, filters=3)))
    weights = {1: random_ternary(5, 4, 0.5, rng)}
    with pytest.raises(ValueError, match="layer 1: dense weights are 5x4, layer needs 3x4"):
        simulate(net, weights, ImageStream(np.zeros((2, 2, 1), dtype=np.int64)))


def test_dense_reads_a_whole_image(rng):
    # a Dense layer straight after a Conv flattens the image raster-major, channels minor
    net = NetworkSpec((LayerSpec("Conv", 4, 1, kernel=1, filters=2), LayerSpec("Dense", 4, 2, filters=3)))
    conv, dense = random_ternary(2, 1, 0.0, rng), random_ternary(3, 32, 0.5, rng)
    x = rng.integers(-100, 100, size=(4, 4, 1))
    want = dense.entries.astype(np.int64) @ (x * conv.entries[:, 0]).reshape(-1)
    res = simulate(net, {0: conv, 1: dense}, ImageStream(x))
    assert res.scores == tuple(want)


# ---------------------------------------------------------------------------
# Whole-network simulation


def tiny_net() -> NetworkSpec:
    return NetworkSpec(
        (
            LayerSpec("Buffer", 8, 1, kernel=3),
            LayerSpec("Conv", 8, 1, kernel=3, filters=4),
            LayerSpec("ScaleShift", 8, 4, activation="ReLU"),
            LayerSpec("MaxPool", 8, 4, kernel=2, stride=2),
            LayerSpec("Mux", 4, 4),
            LayerSpec("Dense", 1, 64, filters=3),
        ),
        clock_hz=1e8,
    )


def tiny_weights(rng):
    conv = random_ternary(4, 9, 0.4, rng)
    c = tuple(rng.uniform(0.2, 2.0, size=4))
    b = tuple(rng.uniform(-4, 4, size=4))
    d = random_ternary(3, 64, 0.5, rng)
    return {1: conv, 2: ScaleShiftParams(c, b), 5: d}


def test_simulate_zero_image_zero_biases(rng):
    net = tiny_net()
    w = tiny_weights(rng)
    w[2] = ScaleShiftParams(w[2].c, (0.0,) * 4)
    img = ImageStream(np.zeros((8, 8, 1), dtype=np.int64))
    res = simulate(net, w, img)
    assert res.scores == (0, 0, 0)
    assert res.argmax == 0  # tie broken to the lowest index


def test_simulate_matches_straightline_reference(rng):
    net = tiny_net()
    for trial in range(5):
        w = tiny_weights(rng)
        img = ImageStream(rng.integers(-(2**11), 2**11, size=(8, 8, 1)))
        res = simulate(net, w, img)
        conv_w = [w[1].entries[f].reshape(3, 3, 1)[:, :, 0].tolist() for f in range(4)]
        ref = straightline_ref.reference_scores(
            img.data.tolist(), conv_w, list(w[2].c), list(w[2].b), w[5].entries.tolist()
        )
        assert list(res.scores) == ref


def test_simulate_deterministic(rng):
    net = tiny_net()
    w = tiny_weights(rng)
    img = ImageStream(rng.integers(-(2**11), 2**11, size=(8, 8, 1)))
    assert simulate(net, w, img) == simulate(net, w, img)


def test_conv_block_equals_adder_graph_per_patch(rng):
    net = tiny_net()
    w = tiny_weights(rng)
    img = ImageStream(rng.integers(-(2**11), 2**11, size=(8, 8, 1)))
    g = build_tree(bu_cse(w[1]), 2)
    patches = patch_matrix(img, 3)
    from ternroll import evaluate_batch

    want = evaluate_batch(g, patches.T.astype(np.int64))
    direct = patches @ w[1].entries.astype(np.int64).T
    assert np.array_equal(want.T, direct)


def test_widening_act_format_is_noop_without_saturation(rng):
    net = tiny_net()
    w = tiny_weights(rng)
    img = ImageStream(rng.integers(-(2**7), 2**7, size=(8, 8, 1)))
    res16 = simulate(net, w, img)
    if res16.saturations == 0:
        from ternroll.fixedpoint import FixedPointFormat

        wide = NetworkSpec(net.layers, net.clock_hz, FixedPointFormat(20, 4), net.scale_format)
        res20 = simulate(wide, w, img)
        assert res20.scores == res16.scores


def test_simulate_counts_saturations(rng):
    net = tiny_net()
    w = tiny_weights(rng)
    w[2] = ScaleShiftParams((500.0,) * 4, (0.0,) * 4)
    img = ImageStream(np.full((8, 8, 1), 2000, dtype=np.int64))
    res = simulate(net, w, img)
    assert res.saturations > 0


def test_simulate_shape_errors(rng):
    net = tiny_net()
    w = tiny_weights(rng)
    with pytest.raises(ValueError):
        simulate(net, w, ImageStream(np.zeros((4, 4, 1), dtype=np.int64)))
    w[1] = random_ternary(4, 8, 0.5, rng)
    with pytest.raises(ValueError):
        simulate(net, w, ImageStream(np.zeros((8, 8, 1), dtype=np.int64)))


def test_simulate_rejects_image_of_other_fraction_bits(rng):
    net = tiny_net()
    w = tiny_weights(rng)
    assert net.act_format.frac_bits == 4
    with pytest.raises(ValueError, match="fraction bits"):
        simulate(net, w, ImageStream(np.zeros((8, 8, 1), dtype=np.int64), frac_bits=9))


def test_full_vgg7_simulate_with_patchwise_oracle(rng):
    net = vgg7_cifar10()
    weights = {}
    for idx, layer in enumerate(net.layers):
        if layer.kind == "Conv":
            cols = layer.kernel * layer.kernel * layer.in_channels
            weights[idx] = random_ternary(layer.filters, cols, 0.75, rng)
        elif layer.kind == "Dense":
            weights[idx] = random_ternary(layer.filters, layer.in_channels, 0.75, rng)
        elif layer.kind == "ScaleShift":
            ch = layer.in_channels
            weights[idx] = ScaleShiftParams(
                tuple(rng.uniform(0.005, 0.05, size=ch)), tuple(rng.uniform(-2, 2, size=ch))
            )
    img = ImageStream(rng.integers(0, 2**12, size=(32, 32, 3)))
    res = simulate(net, weights, img)
    assert len(res.scores) == 10
    assert 0 <= res.argmax < 10
    # the first conv block, streamed, equals the shared adder tree on every patch
    g = build_tree(bu_cse(weights[1]), 2)
    patches = patch_matrix(img, 3)
    from ternroll import evaluate_batch

    tree_out = evaluate_batch(g, patches.T.astype(np.int64)).T
    direct = patches @ weights[1].entries.astype(np.int64).T
    assert np.array_equal(tree_out, direct)


def test_vgg7_simulate_equals_the_int64_product(monkeypatch):
    # VGG-7's shapes reach the blocked BLAS kernels that small matrices do not
    net = vgg7_cifar10()
    rng = np.random.default_rng(12)
    weights = {}
    for idx, layer in enumerate(net.layers):
        if layer.kind in ("Conv", "Dense"):
            w = FloatMatrix(rng.standard_normal(layer.weight_shape))
            weights[idx], _ = ternarize(w, layer.epsilon)
        elif layer.kind == "ScaleShift":
            t = weights[idx - 1]
            c = 1.5 / np.sqrt(np.count_nonzero(t.entries) / t.rows) * rng.uniform(0.75, 1.25, t.rows)
            weights[idx] = ScaleShiftParams(tuple(c), tuple(rng.uniform(-0.5, 0.5, t.rows)))
    images = [ImageStream(rng.integers(-amp, amp, size=(32, 32, 3))) for amp in (256, 2**15)]
    got = [simulate(net, weights, img) for img in images]
    # every Conv and Dense product goes through TernaryMatrix.product: swap
    # it for the reference, entries accumulated in int64, and record the
    # type simulate chose for each call
    types = []

    def int64_product(self, x):
        types.append(x.dtype.type)
        # below 2^24 (2^53) the cast to float32 (float64) lost nothing
        assert np.abs(x).max() < {np.float32: 2.0**24, np.float64: 2.0**53}[x.dtype.type]
        return x.astype(np.int64) @ self.entries.T.astype(np.int64)

    monkeypatch.setattr(TernaryMatrix, "product", int64_product)
    assert got == [simulate(net, weights, img) for img in images]
    assert got[0].saturations == 0 < got[1].saturations
    assert len(types) == len(images) * sum(layer.kind in ("Conv", "Dense") for layer in net.layers)
    assert {np.float32, np.float64} <= set(types)


def test_simulate_refuses_a_conv_sum_past_int64():
    # 2^62 + 2^62 wraps to the int64 minimum, which saturation cannot undo
    net = NetworkSpec((LayerSpec("Conv", 1, 2, kernel=1, filters=1),), 1e8, FixedPointFormat(64, 4))
    weights = {0: TernaryMatrix(np.array([[1, 1]], dtype=np.int8))}
    with pytest.raises(ValueError, match=rf"layer 0: conv 1x2 product .*{2**63}, past int64"):
        simulate(net, weights, ImageStream(np.full((1, 1, 2), 2**62)))


def test_simulate_refuses_a_64_bit_scale_format_before_the_first_layer(rng, monkeypatch):
    # with an all-zero image no product ever leaves int64, but 1.5 in Q2.62
    # times any conv sum of Q12.4 pixels could: the network is refused
    net = tiny_net()
    wide = NetworkSpec(net.layers, net.clock_hz, net.act_format, FixedPointFormat(64, 62))
    products = []
    monkeypatch.setattr(TernaryMatrix, "product", lambda self, x: products.append(x))
    want = r"^layer 2: scale-shift by Q2\.62 constants and Q12\.4 shifts overflows int64$"
    with pytest.raises(ValueError, match=want):
        simulate(wide, tiny_weights(rng), ImageStream(np.zeros((8, 8, 1), dtype=np.int64)))
    assert products == []


def test_simulate_bounds_what_the_image_reaches_by_the_image_peak(rng):
    # a scale-shift that reads the image: 2^14 * 2^48 fits int64, 2^15 * 2^48 does not
    net = NetworkSpec((LayerSpec("ScaleShift", 1, 2),), 1e8, FixedPointFormat(64, 4), FixedPointFormat(64, 0))
    w = {0: ScaleShiftParams((2.0**48, -(2.0**48)), (0.0, 0.0))}
    assert simulate(net, w, ImageStream(np.full((1, 1, 2), 2**14))).scores == (2**62, -(2**62))
    want = r"^layer 0: scale-shift by Q64\.0 constants and Q60\.4 shifts overflows int64$"
    with pytest.raises(ValueError, match=want):
        simulate(net, w, ImageStream(np.full((1, 1, 2), 2**15)))
    # pixels far past Q12.4 lift the conv sums past the bound the act format gives
    net, w = tiny_net(), tiny_weights(rng)
    w[2] = ScaleShiftParams((2.0,) * 4, (0.0,) * 4)
    with pytest.raises(ValueError, match=r"^layer 2: scale-shift"):
        simulate(net, w, ImageStream(np.full((8, 8, 1), 2**59)))


def test_simulate_quantizes_the_constants_once(rng, monkeypatch):
    net, w = tiny_net(), tiny_weights(rng)
    # the same layers and the same ScaleShiftParams object, constants in Q14.10
    nets = {"a": net, "b": NetworkSpec(net.layers, net.clock_hz, net.act_format, FixedPointFormat(24, 10))}
    images = [ImageStream(rng.integers(-(2**11), 2**11, size=(8, 8, 1))) for _ in range(3)]
    # what fresh params, with nothing quantized yet, give
    fresh = {
        name: [simulate(n, {**w, 2: dataclasses.replace(w[2])}, img) for img in images]
        for name, n in nets.items()
    }
    assert fresh["a"] != fresh["b"]
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(calls))
        return quantize(*args, **kwargs)

    monkeypatch.setattr(pipeline, "quantize", counting)
    counts = []
    for name in ("a", "b", "a"):
        for img, want in zip(images, fresh[name]):
            assert simulate(nets[name], w, img) == want
            counts.append(len(calls))
    # c and b are quantized on the first image in each format, and never again
    assert counts == [2, 2, 2, 4, 4, 4, 4, 4, 4]


def test_simulate_converts_each_weight_matrix_once(rng, monkeypatch):
    # 40-bit activations let the loud image take the float64 digit products
    net = tiny_net()
    net = NetworkSpec(net.layers, net.clock_hz, FixedPointFormat(40, 4))
    w = tiny_weights(rng)
    images = [ImageStream(rng.integers(-(2**a), 2**a, size=(8, 8, 1))) for a in (11, 30, 11)]
    built = []
    convert = TernaryMatrix._transpose32.func

    def counting(m):
        built.append(m.shape)
        return convert(m)

    monkeypatch.setattr(TernaryMatrix._transpose32, "func", counting)
    counts = []
    for img in images:
        assert simulate(net, w, img).scores == _exact_tiny_scores(net, w, img)
        counts.append(len(built))
    # the conv and the dense weights are converted on the first image, and never again
    assert counts == [2, 2, 2]


def test_simulate_leaves_its_arguments_as_it_found_them(rng):
    net, w = tiny_net(), tiny_weights(rng)
    before, held = dict(vars(net)), dict(w)
    for _ in range(3):
        simulate(net, w, ImageStream(rng.integers(-(2**11), 2**11, size=(8, 8, 1))))
    assert vars(net) == before
    assert w.keys() == held.keys() and all(w[k] is held[k] for k in held)


def test_simulate_plan_follows_the_weights_it_is_given(rng):
    # one network, two weight dicts that differ only in one ScaleShiftParams
    net = tiny_net()
    a = tiny_weights(rng)
    b = dict(a)
    b[2] = ScaleShiftParams(tuple(-v for v in a[2].c), a[2].b)
    img = ImageStream(rng.integers(-(2**11), 2**11, size=(8, 8, 1)))
    first = {"a": simulate(net, a, img), "b": simulate(net, b, img)}
    assert first["a"] != first["b"]
    for name, w in (("a", a), ("b", b)) * 2:
        assert simulate(net, w, img) == first[name]


def _exact_tiny_scores(net, w, img):
    """The scores of the tiny network, or of its first three layers, in
    Python ints, for any act and scale format."""
    act, scl = net.act_format, net.scale_format

    def clip(v):
        return min(max(v, act.raw_min), act.raw_max)

    sums = patch_matrix(img, 3).astype(object) @ w[1].entries.T.astype(object)
    c, b = quantize(w[2].c, scl).tolist(), quantize(w[2].b, act).tolist()

    def scale(v, ch):
        p = v * c[ch]
        q = (abs(p) + (scl.scale >> 1)) >> scl.frac_bits
        return max(0, clip((q if p >= 0 else -q) + b[ch]))

    y = np.array([[scale(v, ch) for ch, v in enumerate(row)] for row in sums.tolist()], dtype=object)
    if len(net.layers) == 3:
        return tuple(y.reshape(-1).tolist())
    pooled = y.reshape(4, 2, 4, 2, 4).max(axis=(1, 3))
    return tuple(clip(v) for v in (w[5].entries.astype(object) @ pooled.reshape(-1)).tolist())


@st.composite
def _formats(draw):
    total = draw(st.integers(8, 64))
    return FixedPointFormat(total, draw(st.integers(0, min(total - 1, 16))))


@st.composite
def _scale_shift_cases(draw):
    """Act and scale formats, raw constants and an int64 x whose scale-shift
    ``check`` puts in float32 or float64: products below 2^23 or 2^51, at
    and beside the ties +-(k + 1/2) 2^f on channels whose constant is +-1
    raw, and products that saturate on either side."""
    total = draw(st.integers(8, 52))
    act = FixedPointFormat(total, draw(st.integers(0, min(total - 1, 16))))
    scl = draw(_formats())
    n = draw(st.integers(1, 4))
    # below 2^52, c / scale and quantize's c + 1/2 are exact in float64
    exact = st.integers(max(scl.raw_min, 1 - (1 << 52)), min(scl.raw_max, (1 << 52) - 1))
    c = draw(st.lists(st.sampled_from((1, -1)) | exact, min_size=n, max_size=n))
    b = draw(st.lists(st.integers(act.raw_min, act.raw_max), min_size=n, max_size=n))
    limit = draw(st.sampled_from((1 << 23, 1 << 51))) // max(1, *map(abs, c))
    f, half = scl.frac_bits, scl.scale >> 1
    ties = st.builds(
        lambda k, d, sign: sign * min((k << f) + half + d, limit),
        st.integers(0, limit >> f),
        st.integers(-1, 1),
        st.sampled_from((1, -1)),
    )
    x = draw(st.lists(st.lists(ties | st.integers(-limit, limit), min_size=n, max_size=n), min_size=1, max_size=6))
    return act, scl, c, b, np.array(x, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(case=_scale_shift_cases())
# ties of +-1/2 and +-3/2 in Q12.4 from Q10.6, and the values beside them
@example(case=(ACT_FORMAT, SCALE_FORMAT, [1, -1], [0, 0], np.array([[32, 32], [-32, -96], [96, 31], [-33, 95]])))
# below raw_min and past raw_max: under ReLU the low one counts once and gives 0
@example(case=(ACT_FORMAT, SCALE_FORMAT, [64, 64], [0, 0], np.array([[-40000, 40000], [-32768, 32767]])))
# |c*x| plus the rounding half of 32 is 2^24 - 1, the last bound of float32,
# then 2^24, the first of float64
@example(case=(ACT_FORMAT, SCALE_FORMAT, [1, -1], [0, 5], np.array([[(1 << 24) - 33, -(1 << 24) + 33]])))
@example(case=(ACT_FORMAT, SCALE_FORMAT, [1, -1], [0, 5], np.array([[(1 << 24) - 32, -(1 << 24) + 32]])))
def test_scale_shift_float64_and_int64_paths_agree(case):
    act, scl, c, b, x = case
    params = ScaleShiftParams(tuple(v / scl.scale for v in c), tuple(v / act.scale for v in b))
    step = pipeline._ScaleShift(params, scl, act)
    assert step.c.tolist() == c and step.b.tolist() == b
    half, x_peak = scl.scale >> 1, max(-int(x.min()), int(x.max()))
    # the three tiers of check, from the bound in Python ints
    rounded = x_peak * max(map(abs, c)) + half
    bound = max(rounded, (rounded >> scl.frac_bits) + max(map(abs, b)))
    tier = next(t for t, bits in ((np.float32, 24), (np.float64, 53)) if bound < 1 << bits)
    assert step.check(x_peak) is tier
    for relu in ("None", "ReLU"):
        # Python ints: round half away from zero, add b, count and clamp, then the ReLU
        want, hits = [], 0
        for row in x.tolist():
            for v, cv, bv in zip(row, c, b):
                q = (abs(v * cv) + half) >> scl.frac_bits
                y = (q if v * cv >= 0 else -q) + bv
                hits += not act.raw_min <= y <= act.raw_max
                y = min(max(y, act.raw_min), act.raw_max)
                want.append(max(y, 0) if relu == "ReLU" else y)
        for dtype in (np.int64, np.float64, np.float32)[: 3 if tier is np.float32 else 2]:
            counter = SaturationCounter()
            got = step(x, relu, counter, dtype)
            assert got.dtype == dtype
            assert got.reshape(-1).tolist() == want
            assert counter.count == hits


_SEEDS = st.integers(0, 2**32 - 1)
# formats of 8-64 bits, images from a few lsbs up to the act range, and
# constants anywhere in their format or at an edge near 2^63
_ANY_WIDTHS = st.tuples(
    _formats(), _formats(), _SEEDS, st.integers(0, 63), st.booleans(), st.none() | st.floats(-13, 1),
    st.integers(-16, 64), st.booleans(), st.booleans(),
)
# 55-60-bit act formats hold the outputs of scale-shift products past 2^53
# when the scale format has few fraction bits, and loud images reach such
# products: the int64 side of the float64/int64 switch, mostly unsaturated
_WIDE_ACTS = st.tuples(
    st.builds(FixedPointFormat, st.integers(55, 60), st.integers(0, 4)),
    st.builds(FixedPointFormat, st.integers(8, 16), st.integers(0, 2)),
    _SEEDS, st.integers(40, 56), st.just(True), st.none() | st.floats(-14, -2),
    st.integers(-16, 64), st.booleans(), st.booleans(),
)


# each branch is drawn about half the time: 600 keeps _ANY_WIDTHS' 300 draws
@settings(max_examples=600, deadline=None)
@given(case=_ANY_WIDTHS | _WIDE_ACTS)
# the conv sums of full-scale pixels times constants near 2^63 / sum
@example(case=(FixedPointFormat(16, 4), FixedPointFormat(56, 10), 5, 15, True, 0.5, 0, False, True))
# shifts past 2^24 in Q27.0, which a float32 stream would round
@example(case=(FixedPointFormat(27, 0), FixedPointFormat(8, 0), 0, 0, False, None, 27, False, False))
# scale-shift products past 2^53, which float64 would round: they run in int64
@example(case=(FixedPointFormat(55, 0), FixedPointFormat(8, 0), 0, 52, True, -9.0, 0, False, True))
def test_width_rule_refuses_up_front_or_runs_exactly(case):
    act, scl, seed, top_bits, loud, edge, b_bits, sparse, head = case
    rng = np.random.default_rng(seed)
    net = tiny_net()
    # the head (buffer, conv, scale-shift) shows every scale-shift output as a score
    net = NetworkSpec(net.layers[:3] if head else net.layers, net.clock_hz, act, scl)
    w = tiny_weights(rng)
    if sparse:  # dense rows with few nonzeros leave room for a wide act format
        w[5] = random_ternary(3, 64, 0.97, rng)
    # images from a few lsbs up to the whole act range, extremes included
    top = (1 << min(top_bits, act.total_bits - 1)) - 1
    fullest = int(np.count_nonzero(w[1].entries, axis=1).argmax())
    if loud:  # the fullest filter's signs tiled: the patch at (1, 1) sums its nonzeros x top
        pixels = np.tile(w[1].entries[fullest].reshape(3, 3, 1), (3, 3, 1))[:8, :8] * np.int64(top)
    else:
        pixels = rng.integers(-top - 1, top, size=(8, 8, 1), endpoint=True)
        pixels.flat[seed % 64] = (-top - 1, top)[seed % 2]
    # constants from an lsb of their format to past its range, or, at an
    # edge, ones whose product with the loudest conv sum lands near 2^63
    if edge is None:
        c_top = 2.0 ** rng.integers(-scl.frac_bits, scl.total_bits - scl.frac_bits, endpoint=True)
        c = rng.uniform(-c_top, c_top, 4)
    else:
        reach = max(1, int(np.count_nonzero(w[1].entries[fullest]))) * (top + 1)
        c = 2.0**63 / reach * 2.0**edge / scl.scale * rng.choice((-1, 1), 4)
    b_top = 2.0 ** min(b_bits, act.total_bits) / act.scale
    w[2] = ScaleShiftParams(tuple(c), tuple(rng.uniform(-b_top, b_top, 4)))
    img = ImageStream(pixels, act.frac_bits)
    try:
        got = simulate(net, w, img)
    except ValueError:
        got = None
    # the reference: every product accumulated in int64 after checking the
    # float cast was lossless, as in test_vgg7_simulate_equals_the_int64_product
    types = []

    def int64_product(self, x):
        types.append(x.dtype.type)
        if x.dtype.kind == "f":
            assert np.abs(x).max() < {np.float32: 2.0**24, np.float64: 2.0**53}[x.dtype.type]
        return x.astype(np.int64) @ self.entries.T.astype(np.int64)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TernaryMatrix, "product", int64_product)
        if got is None:
            with pytest.raises(ValueError):
                simulate(net, w, img)
            assert types == []  # refused before any layer ran
            return
        assert simulate(net, w, img) == got
    assert got.scores == _exact_tiny_scores(net, w, img)


def test_argmax_ignores_monotone_softmax(rng):
    for _ in range(100):
        scores = rng.integers(-(2**14), 2**14, size=10)
        soft = np.exp((scores - scores.max()) / 16.0)
        soft /= soft.sum()
        assert int(np.argmax(scores)) == int(np.argmax(soft))


# ---------------------------------------------------------------------------
# Throughput and op counting


def test_rate_cascade_reproduced_exactly():
    rep = throughput_model(vgg7_cifar10())
    got = [(b.values, b.cycles) for b in rep.blocks]
    assert got[5] == (64, 1)
    assert got[7] == (64, 4)
    assert got[13] == (128, 4)
    assert got[15] == (128, 16)
    assert got[21] == (256, 16)
    assert got[23] == (256, 64)
    assert got[25] == (4, 1)
    assert got[0] == (3, 1)


def test_frames_per_sec_formula():
    rep = throughput_model(vgg7_cifar10(125e6))
    assert rep.frames_per_sec == 122_070
    assert rep.fps_exact == Fraction(125_000_000, 1024)


def test_doubling_width_quarters_fps():
    base = throughput_model(tiny_net()).fps_exact

    wide = NetworkSpec(
        (
            LayerSpec("Buffer", 16, 1, kernel=3),
            LayerSpec("Conv", 16, 1, kernel=3, filters=4),
            LayerSpec("ScaleShift", 16, 4, activation="ReLU"),
            LayerSpec("MaxPool", 16, 4, kernel=2, stride=2),
            LayerSpec("Mux", 8, 4),
            LayerSpec("Dense", 1, 256, filters=3),
        ),
        clock_hz=1e8,
    )
    assert throughput_model(wide).fps_exact == base / 4


def test_image_side_dense_takes_one_input_a_cycle():
    # two values a cycle arrive, but a Dense fed by the image side is charged
    # one cycle for each of its 3*3*2 matrix columns, plus one
    net = NetworkSpec((LayerSpec("Conv", 3, 1, kernel=1, filters=2), LayerSpec("Dense", 3, 2, filters=2)))
    assert [(b.values, b.cycles) for b in throughput_model(net).blocks] == [(2, 1), (2, 9)]
    assert throughput_model(net).latency_cycles == 19


def test_latency_positive_and_fifo_reported():
    rep = throughput_model(vgg7_cifar10())
    assert rep.latency_cycles > 0
    assert 24 in rep.fifo_high_water


def test_op_count_dense_column():
    table = op_count(vgg7_cifar10())
    macs = {r.name: r.dense_macs for r in table.rows}
    assert macs["Conv1"] == 1_769_472
    assert macs["Conv2"] == 37_748_736
    assert macs["Conv3"] == 18_874_368
    assert macs["Conv4"] == 37_748_736
    assert macs["Conv5"] == 18_874_368
    assert macs["Conv6"] == 37_748_736
    assert macs["Dense1"] == 4096 * 128
    assert macs["Dense2"] == 1280


def test_op_count_sparsity_and_cse_columns(rng):
    net = tiny_net()
    t = random_ternary(4, 9, 0.5, rng)
    table = op_count(net, weights={1: t}, cse_costs={1: 10})
    row = table.rows[0]
    assert row.dense_macs == 8 * 8 * 9 * 1 * 4
    assert row.sparse_macs == 64 * int(np.count_nonzero(t.entries))
    assert row.cse_ops == 64 * 10
    dense_row = table.rows[1]
    assert dense_row.cse_ops == 2 * dense_row.dense_macs  # one MAC counted as two ops


def test_op_count_dense_reading_an_image():
    # its weights are 3 x (4*4*2): 96 MACs, not in_channels * filters = 6
    table = op_count(NetworkSpec((LayerSpec("Dense", 4, 2, filters=3),)))
    (row,) = table.rows
    assert (row.formula, row.dense_macs, row.sparse_macs, row.cse_ops) == ("32*3", 96, 96, 192)


def test_op_count_zero_filters():
    net = NetworkSpec((LayerSpec("Buffer", 4, 1),), 1e8)
    assert op_count(net).total_dense == 0


# ---------------------------------------------------------------------------
# Image format


def test_img_text_round_trip(rng):
    img = ImageStream(rng.integers(-300, 300, size=(4, 5, 2)), frac_bits=4)
    assert parse_img(format_img(img)) == img


def test_img_binary_round_trip(rng, tmp_path):
    img = ImageStream(rng.integers(-(2**15), 2**15, size=(6, 6, 3)), frac_bits=4)
    path = tmp_path / "img.bin"
    dump_img(img, str(path), binary=True)
    assert load_img(str(path)) == img


def test_img_binary_header_carries_the_raster_mark(rng):
    img = ImageStream(rng.integers(-(2**15), 2**15, size=(2, 3, 1)), frac_bits=4)
    blob = format_img(img, binary=True)
    assert blob.startswith(b"img 3 2 1 4 le16\n") and len(blob) == len(b"img 3 2 1 4 le16\n") + 12
    with pytest.raises(ImageFormatError, match="le16 raster needs 12 bytes, found 11"):
        parse_img(blob[:-1])


@pytest.mark.parametrize("body", [b"1_0\n", b"+5 \n"], ids=["underscore", "plus"])
def test_img_text_body_of_raster_length_stays_text(body):
    # 2 * W * H * D bytes, but no le16 mark: a bad text body, not a raster
    with pytest.raises(ImageFormatError, match="bad sample"):
        parse_img(b"img 2 1 1 4\n" + body)


def test_img_raster_without_the_mark_is_rejected():
    with pytest.raises(ImageFormatError):
        parse_img(b"img 2 2 1 4\n" + struct.pack("<4h", 1000, -2, 300, -4))


def test_img_text_payload_of_binary_length_reads_as_text():
    # "0 0 0 0\n" is exactly 2 * count bytes yet must parse as text samples
    img = parse_img(b"img 2 2 1 4\n0 0 0 0\n")
    assert img.data.reshape(-1).tolist() == [0, 0, 0, 0]
    img2 = parse_img(b"img 2 2 1 4\n1 -2 3 -4\n")
    assert img2.data.reshape(-1).tolist() == [1, -2, 3, -4]


def test_img_header_errors():
    with pytest.raises(ImageFormatError):
        parse_img(b"imgg 2 2 1 4\n0 0 0 0\n")
    with pytest.raises(ImageFormatError):
        parse_img(b"img 2 2 1\n0 0 0 0\n")
    with pytest.raises(ImageFormatError):
        parse_img(b"img 2 2 1 4\n0 0 0\n")
    with pytest.raises(ImageFormatError):
        parse_img(b"img 2 2 1 4\n0 0 0 0 9\n")
    for header in (b"img 1_1 1 1 4", b"img 2 +1 1 4", b"img 2 1 1 -4"):  # ASCII digits only
        with pytest.raises(ImageFormatError, match="bad header field"):
            parse_img(header + b"\n0 0\n")


def test_img_text_samples_must_fit_16_bits():
    img = parse_img(b"img 2 1 1 4\n32767 -32768\n")
    assert img.data.reshape(-1).tolist() == [32767, -32768]
    for sample in (b"32768", b"-32769", b"99999999999999999999999"):
        with pytest.raises(ImageFormatError, match="16-bit"):
            parse_img(b"img 2 1 1 4\n0 " + sample + b"\n")


def test_img_text_body_names_a_non_ascii_byte_by_line_and_column(tmp_path):
    blob = b"img 2 1 1 4\n1 \xc3\xa9\n"
    with pytest.raises(ImageFormatError, match=r"^line 2, column 3: byte 0xc3 is not ASCII$"):
        parse_img(blob)
    path = tmp_path / "img.txt"
    path.write_bytes(blob)
    with pytest.raises(ImageFormatError, match=rf"^{re.escape(str(path))}: line 2, column 3: byte 0xc3 is not ASCII$"):
        load_img(str(path))


@pytest.mark.parametrize("sample", [b"1_0", b"+5", b"-", b"--5", b"5-"])
def test_img_text_samples_take_ascii_digits_and_a_leading_minus(sample):
    with pytest.raises(ImageFormatError, match="bad sample"):
        parse_img(b"img 3 1 1 4\n0 -7 " + sample + b"\n")


# Header lines close to valid ones, and bodies of text samples or raw bytes;
# or any bytes.
IMG_HEAD = st.sampled_from(
    [b"img 2 1 1 4", b"img 2 1 1 4 le16", b"img 1 1 1 0 le16", b"img 2 1 1", b"img 1_0 1 1 4", b"img 2 1 1 4 le32",
     b"img 0 1 1 4", b"img 2 1 1 4 le16 le16", b"img \xd9\xa2 1 1 4"]
)
IMG_SAMPLE = st.sampled_from(["1", "-1", "0", "32767", "-32768", "32768", "1_0", "+5", "-", "\u0663", "\n"])
IMG_BODY = st.binary(max_size=6) | st.lists(IMG_SAMPLE, max_size=4).map(lambda t: " ".join(t).encode())
IMG_BLOB = st.builds(lambda head, body: head + b"\n" + body, IMG_HEAD, IMG_BODY) | st.binary()


@settings(max_examples=300, deadline=None)
@given(blob=IMG_BLOB)
def test_parse_img_parses_or_raises_its_format_error(blob):
    try:
        img = parse_img(blob)
    except ImageFormatError:
        return
    assert img.data.size and img.data.min() >= -(1 << 15) and img.data.max() < 1 << 15

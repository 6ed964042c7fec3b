"""Bit-exact functional simulation of the streaming network plus its
cycle-accounting models (throughput cascade, op counts, latency estimates).

Conv and Dense blocks accumulate exact wide integer sums; the following
ScaleShift block scales by the fused constant, adds the shift, saturates back
to the activation format and applies the activation. A Conv/Dense output that
feeds anything other than a ScaleShift is saturated to the activation format
directly. Flattening (at a Mux block) is pixel-raster major with channels
minor, and convolution patches are laid out (window row, window column,
channel), matching the column order of the weight matrices.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fixedpoint import (
    ACT_FORMAT,
    SCALE_FORMAT,
    FixedPointFormat,
    SaturationCounter,
    exact_type,
    peak,
    quantize,
    saturate,
    shift_right_round,
)
from .matrices import FrozenArrays, TernaryMatrix, _ascii_digits, not_ascii
from .network import LayerSpec, NetworkSpec, ScaleShiftParams


class ImageFormatError(ValueError):
    """An image file violates the img format."""


@dataclass(frozen=True, eq=False)
class ImageStream(FrozenArrays):
    """A raster-ordered image of raw fixed-point channel vectors, read-only
    (see ``FrozenArrays``)."""

    ARRAYS = dict(data=np.int64)

    data: np.ndarray = field(repr=False)  # (height, width, channels) int64 raw
    frac_bits: int = 4

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.data.ndim != 3:
            raise ValueError(f"image must be HxWxD, got shape {self.data.shape}")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    def flatten(self) -> np.ndarray:
        """Raster-major, channel-minor vector of all values."""
        return self.data.reshape(-1).copy()


def _check_window(width: int, height: int, kernel: int) -> None:
    if kernel % 2 == 0:
        raise ValueError(f"window kernel must be odd, got {kernel}")
    if kernel > width or kernel > height:
        raise ValueError(f"kernel {kernel} exceeds image {width}x{height}")


def patch_matrix(img: ImageStream, kernel: int) -> np.ndarray:
    """(H*W, kernel*kernel*channels) int64 matrix of all zero-padded
    patches in raster order: the patches the line-buffer model emits."""
    return _patches(img.data, kernel)


def _patches(data: np.ndarray, kernel: int) -> np.ndarray:
    """The patch matrix of an (H, W, C) array, in its dtype, computed as one view."""
    height, width, channels = data.shape
    _check_window(width, height, kernel)
    pad = kernel // 2
    padded = np.zeros((height + 2 * pad, width + 2 * pad, channels), data.dtype)
    padded[pad : pad + height, pad : pad + width] = data
    windows = sliding_window_view(padded, (kernel, kernel), axis=(0, 1))  # (H, W, C, k, k)
    return windows.transpose(0, 1, 3, 4, 2).reshape(height * width, -1)


def max_pool(img: ImageStream, k: int, n: int) -> ImageStream:
    """Per-channel max over k x k windows anchored at stride n."""
    return ImageStream(_pool(img.data, k, n), img.frac_bits)


def _pool(data: np.ndarray, k: int, n: int) -> np.ndarray:
    """The max pool of an (H, W, C) array, in its dtype: the running maximum
    of the k x k strided slices, one per window offset."""
    height, width, channels = data.shape
    if k < 1 or n < 1:
        raise ValueError("pool kernel and stride must be >= 1")
    if width % n or height % n:
        raise ValueError(f"image {width}x{height} not divisible by stride {n}")
    if k > n:  # the last window reaches k - n past the edge; it holds its anchor pixel, so the pad never wins
        low = np.iinfo(data.dtype).min if data.dtype.kind == "i" else -np.inf
        padded = np.full((height + k - n, width + k - n, channels), low, data.dtype)
        padded[:height, :width] = data
        data = padded
    return reduce(np.maximum, (data[i : i + height : n, j : j + width : n] for i in range(k) for j in range(k)))


class _ScaleShift:
    """A ScaleShift's datapath with its constants quantized once: ``c`` to
    the scale format and ``b`` to the activation format, as raw int64."""

    def __init__(self, params: ScaleShiftParams, scale_fmt: FixedPointFormat, act_fmt: FixedPointFormat):
        self.c, self.b = quantize(params.c, scale_fmt), quantize(params.b, act_fmt)
        self.c_peak, self.b_peak = peak(self.c), peak(self.b)
        self.scale_fmt, self.act_fmt = scale_fmt, act_fmt

    @classmethod
    def of(cls, params: ScaleShiftParams, scale_fmt: FixedPointFormat, act_fmt: FixedPointFormat):
        """The datapath of ``params`` in these formats, memoized on ``params``."""
        memo, key = params._quantized, (scale_fmt, act_fmt)
        if key not in memo:
            memo[key] = cls(params, scale_fmt, act_fmt)
        return memo[key]

    def check(self, x_peak: int) -> type:
        """The type in which inputs of magnitude at most ``x_peak`` compute
        exactly, from the largest |c*x| plus the rounding half, and the
        rounded quotient plus |b|, in Python ints: float32 below 2^24,
        float64 below 2^53, int64 below 2^63. Past int64: ValueError.

        Below a type's bound every step is exact in it: the product is an
        integer inside the bound, the sign step, the rounding half and the
        shift by 2^-f are exact, and the quotient plus |b| stays inside it.
        """
        fmt = self.scale_fmt
        rounded = x_peak * self.c_peak + (fmt.scale >> 1)
        bound = max(rounded, (rounded >> fmt.frac_bits) + self.b_peak)
        dtype = exact_type(bound)
        if dtype is None:
            raise ValueError(f"scale-shift by {fmt} constants and {self.act_fmt} shifts overflows int64")
        return dtype

    def __call__(self, x: np.ndarray, act: str, counter: SaturationCounter | None, dtype: type) -> np.ndarray:
        """The outputs for integer-valued ``x``, computed and returned in the
        ``dtype`` that ``check`` chose for its peak; every cast is of exact
        integers (a constant that the float type rounds meets only x = 0).

        The product array is rounded, shifted and offset in place, the
        values past the act format are counted on both sides, and one
        ``np.clip`` does the clamp and the ReLU, so a value below the format
        counts once under ReLU too. ``b`` is added after the floor, as the
        bound in ``check`` assumes.
        """
        # constants cast once per call, not per block of the ufunc's loop
        c, b = self.c.astype(dtype, copy=False), self.b.astype(dtype, copy=False)
        y = np.multiply(x, c, dtype=dtype, casting="unsafe")
        y = shift_right_round(y, self.scale_fmt.frac_bits, out=y)
        y += b
        fmt = self.act_fmt
        # exact in int64; in a float type |y| is below the bound ``check``
        # gave it, so a raw_max that the type rounds up is past every y
        if counter is not None:
            counter.hit(int(np.count_nonzero(y > fmt.raw_max)) + int(np.count_nonzero(y < fmt.raw_min)))
        return np.clip(y, 0 if act == "ReLU" else fmt.raw_min, fmt.raw_max, out=y)


def scale_shift(
    x,
    params: ScaleShiftParams,
    act: str = "None",
    scale_fmt: FixedPointFormat = SCALE_FORMAT,
    act_fmt: FixedPointFormat = ACT_FORMAT,
    counter: SaturationCounter | None = None,
) -> np.ndarray:
    """Fused per-channel y = act(sat(round((c*x) >> scale_frac) + b)).

    ``x`` is a raw integer channel vector (or an array whose last axis is
    channels); it need not fit the activation format on entry, the result
    always does. The constants are quantized to the scale format (``c``) and
    pre-aligned to the activation format (``b``). Arithmetic that max|x|
    could take past int64 is refused with a ValueError.
    """
    x = np.asarray(x, dtype=np.int64)
    step = _ScaleShift.of(params, scale_fmt, act_fmt)
    if x.shape[-1] != len(params.c):
        raise ValueError(f"expected {len(params.c)} channels, got {x.shape[-1]}")
    return step(x, act, counter, step.check(peak(x))).astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# Whole-network simulation


@dataclass(frozen=True)
class SimulationResult:
    scores: tuple[int, ...]
    argmax: int
    saturations: int


def _steps(net: NetworkSpec, weights: dict, image_peak: int) -> list:
    """Each layer's TernaryMatrix or quantized ScaleShift (None for the
    rest), after checking the weights against the layers and bounding every
    sum and product in Python ints.

    A stream the network saturated is at most A = 2^(act bits - 1) in
    magnitude. The first weighted layer reads the image, at most
    ``image_peak``; a ScaleShift right after a Conv or Dense reads its sums,
    at most max(A, the sum's input bound) x the most nonzeros in a row.
    A bound that reaches 2^63 is refused with a ValueError naming the layer.
    """
    act = net.act_format
    full = -act.raw_min
    x_peak = image_peak  # max|x| of the stream entering the layer
    steps = []
    for idx, layer in enumerate(net.layers):
        kind, w, step = layer.kind, weights.get(idx), None
        if kind in ("Conv", "Dense"):
            if not isinstance(w, TernaryMatrix):
                raise ValueError(f"layer {idx}: {kind} needs a TernaryMatrix weight")
            rows, cols = layer.weight_shape
            if w.shape != (rows, cols):
                raise ValueError(
                    f"layer {idx}: {kind.lower()} weights are {w.rows}x{w.cols}, layer needs {rows}x{cols}"
                )
            step, check, what = w, w.sum_dtype, f"{kind.lower()} "
        elif kind == "ScaleShift":
            if not isinstance(w, ScaleShiftParams):
                raise ValueError(f"layer {idx}: ScaleShift needs ScaleShiftParams")
            if len(w.c) != layer.in_channels:
                raise ValueError(f"layer {idx}: expected {len(w.c)} channels, got {layer.in_channels}")
            step = _ScaleShift.of(w, net.scale_format, act)
            check, what = step.check, ""
        if step is not None:
            try:
                check(x_peak)
            except ValueError as e:
                raise ValueError(f"layer {idx}: {what}{e}") from e
            following = net.layers[idx + 1].kind if idx + 1 < len(net.layers) else None
            if kind != "ScaleShift" and following == "ScaleShift":
                x_peak = max(full, x_peak) * step._fullest
            else:
                x_peak = full
        steps.append(step)
    return steps


def simulate(
    net: NetworkSpec,
    weights: dict[int, TernaryMatrix | ScaleShiftParams],
    img: ImageStream,
) -> SimulationResult:
    """Run the block sequence functionally and bit-exactly.

    ``weights`` maps layer index to a TernaryMatrix (Conv/Dense) or
    ScaleShiftParams (ScaleShift). Classification is the argmax of the final
    output, lowest index on ties. A network whose sums or products could
    leave int64 on this image is refused with a ValueError naming the
    layer, before any layer runs. Between layers the stream stays in the
    type its layer computed it in, which the bounds prove exact; a
    scale-shift's outputs, within the act format, are held in the narrowest
    type that holds 2^(act bits - 1): float32 up to 25 act bits, float64 up
    to 54, int64 above.
    """
    if (img.width, img.height, img.channels) != (net.input_width, net.input_width, net.input_channels):
        raise ValueError(
            f"image {img.width}x{img.height}x{img.channels} does not match network input "
            f"{net.input_width}x{net.input_width}x{net.input_channels}"
        )
    act = net.act_format
    if img.frac_bits != act.frac_bits:
        raise ValueError(
            f"image has {img.frac_bits} fraction bits, the network's activation format "
            f"{act} has {act.frac_bits}"
        )
    steps = _steps(net, weights, peak(img.data))
    held = exact_type(act.raw_max)
    counter = SaturationCounter()
    x = img.data  # (H, W, C) before the flattening Mux, a vector after it
    for idx, layer in enumerate(net.layers):
        kind, step = layer.kind, steps[idx]
        if kind in ("Conv", "Dense"):
            # max|x| of a Conv's map bounds its patches: padding adds zeros
            x = x.astype(step.product_dtype(x), copy=False)
            if kind == "Conv":
                x = step.product(_patches(x, layer.kernel)).reshape(x.shape[0], x.shape[1], layer.filters)
            else:
                x = step.product(x.reshape(-1))
            following = net.layers[idx + 1].kind if idx + 1 < len(net.layers) else None
            if following != "ScaleShift":
                x = saturate(x, act, counter)
        elif kind == "ScaleShift":
            # the sums' own peak, at most the bound _steps checked, picks the type
            x = step(x, layer.activation, counter, step.check(peak(x))).astype(held, copy=False)
        elif kind == "MaxPool":
            x = _pool(x, layer.kernel, layer.stride)
        elif kind == "Mux":
            x = x.reshape(-1)
    scores = x.reshape(-1)
    return SimulationResult(tuple(int(v) for v in scores), int(np.argmax(scores)), counter.count)


# ---------------------------------------------------------------------------
# Throughput, latency and op-count models


@dataclass(frozen=True)
class BlockRate:
    """Output shape of one block: ``values`` values every ``cycles`` cycles."""

    index: int
    kind: str
    out_width: int
    out_channels: int
    values: int
    cycles: int

    @property
    def rate(self) -> Fraction:
        return Fraction(self.values, self.cycles)


@dataclass(frozen=True)
class ThroughputReport:
    blocks: tuple[BlockRate, ...]
    fps_exact: Fraction
    frames_per_sec: int
    latency_cycles: int
    fifo_high_water: dict[int, int]


def throughput_model(net: NetworkSpec) -> ThroughputReport:
    """Per-block rate cascade, frames/sec and a labeled latency estimate.

    Frames/sec is exactly clock / W^2 for a single-pixel-per-cycle input.
    The latency estimate sums per-block warm-ups and pipeline depths; it is
    an analytic estimate, not a measured figure.
    """
    period = net.input_width**2  # cycles per frame at one pixel a cycle
    values, cycles = net.input_channels, 1  # the last block's output: `values` every `cycles` cycles
    flat = False  # after the first Mux or Dense the stream is one vector a frame
    blocks: list[BlockRate] = []
    latency = 0
    fifo_hw: dict[int, int] = {}
    for idx, layer in enumerate(net.layers):
        kind = layer.kind
        if kind == "Buffer":
            pad = layer.kernel // 2
            latency += 1 if flat else (pad * layer.in_width + pad) * cycles
        elif kind == "Conv":
            values = layer.filters
            latency += _tree_depth_estimate(layer) + min(cycles, net.act_format.total_bits) - 1
        elif kind == "ScaleShift":
            latency += 2
        elif kind == "MaxPool":
            cycles *= layer.stride * layer.stride
            latency += max(1, (layer.kernel * layer.kernel - 1).bit_length())
        elif kind == "Fifo":
            latency += 1
            fifo_hw[idx] = layer.in_width * layer.in_channels
        elif kind == "Mux":
            latency += cycles  # never more than a frame: pools shrink the width
            flat = True
            if values % cycles == 0:
                values, cycles = values // cycles, 1
            elif cycles % values == 0:
                values, cycles = 1, cycles // values
        elif kind == "Dense":
            lanes = values if flat and cycles == 1 else 1
            latency += -(-layer.weight_shape[1] // lanes) + 1
            values, cycles, flat = layer.filters, period, True
        blocks.append(BlockRate(idx, kind, *layer.out_shape(), values, cycles))
    fps = Fraction(int(net.clock_hz), period)
    return ThroughputReport(tuple(blocks), fps, int(fps), latency, fifo_hw)


def _tree_depth_estimate(layer: LayerSpec) -> int:
    terms = layer.kernel * layer.kernel * layer.in_channels
    return (terms - 1).bit_length()


@dataclass(frozen=True)
class OpCountRow:
    name: str
    formula: str
    dense_macs: int
    sparse_macs: int | None
    cse_ops: int | None


@dataclass(frozen=True)
class OpCountTable:
    rows: tuple[OpCountRow, ...]
    total_dense: int
    total_sparse: int | None
    total_cse: int | None


def op_count(
    net: NetworkSpec,
    weights: dict[int, TernaryMatrix] | None = None,
    cse_costs: dict[int, int] | None = None,
) -> OpCountTable:
    """Per-layer multiply-accumulate accounting.

    The dense column is W_out^2 * N^2 * D * F for convolutions and in*out,
    with in = W_in^2 * D, for dense layers, computable from the network
    description alone. With weight matrices the sparsity column scales each convolution by its nonzero
    fraction; with per-layer post-extraction adder costs (``cse_costs`` maps
    layer index to Adds+Regs) the final column charges that many adds per
    output pixel. Dense-layer entries count one MAC as two ops in the final
    column and do not exploit sparsity.
    """
    rows: list[OpCountRow] = []
    conv_no = 0
    dense_no = 0
    for idx, layer in enumerate(net.layers):
        if layer.kind == "Conv":
            conv_no += 1
            w = layer.in_width
            n, d, f = layer.kernel, layer.in_channels, layer.filters
            macs = w * w * n * n * d * f
            formula = f"{w}*{w}*{n}*{n}*{d}*{f}"
            sparse = None
            cse = None
            if weights is not None and idx in weights:
                t = weights[idx]
                sparse = w * w * int(np.count_nonzero(t.entries))
            if cse_costs is not None and idx in cse_costs:
                cse = w * w * cse_costs[idx]
            rows.append(OpCountRow(f"Conv{conv_no}", formula, macs, sparse, cse))
        elif layer.kind == "Dense":
            dense_no += 1
            outputs, inputs = layer.weight_shape
            macs = inputs * outputs
            rows.append(OpCountRow(f"Dense{dense_no}", f"{inputs}*{outputs}", macs, macs, 2 * macs))
    total_dense = sum(r.dense_macs for r in rows)
    have_sparse = all(r.sparse_macs is not None for r in rows)
    have_cse = all(r.cse_ops is not None for r in rows)
    return OpCountTable(
        tuple(rows),
        total_dense,
        sum(r.sparse_macs for r in rows) if have_sparse else None,
        sum(r.cse_ops for r in rows) if have_cse else None,
    )


# ---------------------------------------------------------------------------
# Image file format

#: Sixth header field of an img file whose body is a 16-bit little-endian raster.
RASTER_MARK = "le16"


def parse_img(blob: bytes, path: str | None = None) -> ImageStream:
    """Parse the img format: a header line ``img <W> <H> <D> <frac_bits>``,
    then ASCII raw values; or, with a sixth header field ``le16``, a raw
    16-bit little-endian raster of exactly W*H*D samples. A byte of a text
    body that is not ASCII is named by its line and column, after ``path``
    when given."""
    nl = blob.find(b"\n")
    if nl < 0:
        raise ImageFormatError("missing img header line")
    head = blob[:nl].decode("ascii", errors="replace").split()
    raster = head[5:] == [RASTER_MARK]
    if len(head) != 5 + raster or head[0] != "img":
        raise ImageFormatError(f"header must be 'img <W> <H> <D> <frac_bits> [{RASTER_MARK}]'")
    bad = next((t for t in head[1:5] if not _ascii_digits(t)), None)
    if bad is not None:
        raise ImageFormatError(f"bad header field {bad!r}: expected ASCII digits")
    w, h, d, frac = (int(t) for t in head[1:5])
    if min(w, h, d) < 1:
        raise ImageFormatError("header dimensions must be positive")
    body = blob[nl + 1 :]
    count = w * h * d
    if raster:
        if len(body) != 2 * count:
            raise ImageFormatError(f"{RASTER_MARK} raster needs {2 * count} bytes, found {len(body)}")
        vals = struct.unpack(f"<{count}h", body)
        data = np.array(vals, dtype=np.int64).reshape(h, w, d)
        return ImageStream(data, frac)
    try:
        tokens = body.decode("ascii").split()
    except UnicodeDecodeError as e:
        raise ImageFormatError(not_ascii(blob, nl + 1 + e.start, path)) from None
    bad = next((t for t in tokens if not _ascii_digits(t.removeprefix("-"))), None)
    if bad is not None:
        raise ImageFormatError(f"bad sample {bad!r}: expected ASCII digits with an optional leading minus")
    vals = [int(t) for t in tokens]
    if len(vals) != count:
        raise ImageFormatError(f"expected {count} samples, found {len(vals)}")
    bad = next((v for v in vals if not -(1 << 15) <= v < (1 << 15)), None)
    if bad is not None:
        raise ImageFormatError(f"sample {bad} is outside the signed 16-bit range [-32768, 32767]")
    return ImageStream(np.array(vals, dtype=np.int64).reshape(h, w, d), frac)


def load_img(path: str) -> ImageStream:
    with open(path, "rb") as f:
        return parse_img(f.read(), path)

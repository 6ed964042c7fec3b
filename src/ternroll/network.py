"""Network topology description: layer blocks, formats and the JSON file schema."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property

from .fixedpoint import ACT_FORMAT, SCALE_FORMAT, FixedPointFormat
from .ternarize import epsilon_error

LAYER_KINDS = ("Buffer", "Conv", "MaxPool", "ScaleShift", "Mux", "Dense", "Fifo")
ACTIVATIONS = ("None", "ReLU")


class NetworkFormatError(ValueError):
    """A network description file violates the schema."""


@dataclass(frozen=True)
class LayerSpec:
    """One hardware block of the streaming network.

    ``in_width`` is the input image edge in pixels (1 for vector stages),
    ``in_channels`` the input depth. ``kernel``/``stride`` apply to Conv and
    MaxPool; Conv padding is fixed at floor(kernel/2) zeros per border.
    ``pixel_interval`` is the number of cycles between valid input pixels
    and must equal the product of the squared pool strides upstream; leave
    it at 0 to have validation infer it.
    """

    kind: str
    in_width: int
    in_channels: int
    kernel: int = 1
    stride: int = 1
    filters: int = 0
    epsilon: float = 0.0
    pixel_interval: int = 0
    activation: str = "None"

    def __post_init__(self) -> None:
        if self.kind not in LAYER_KINDS:
            raise NetworkFormatError(f"unknown layer kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise NetworkFormatError(f"unknown activation {self.activation!r}")
        if self.in_width < 1 or self.in_channels < 1:
            raise NetworkFormatError("in_width and in_channels must be >= 1")
        if self.kernel < 1 or self.stride < 1:
            raise NetworkFormatError("kernel and stride must be >= 1")
        why = epsilon_error(self.epsilon)
        if why:
            raise NetworkFormatError(why)
        if self.pixel_interval < 0:
            raise NetworkFormatError("pixel_interval must be >= 0 (0 = inferred)")
        if self.kind == "Conv":
            if self.filters < 1:
                raise NetworkFormatError("Conv layer needs filters >= 1")
            if self.kernel % 2 == 0:
                raise NetworkFormatError("Conv kernel must be odd")
        if self.kind == "Dense" and self.filters < 1:
            raise NetworkFormatError("Dense layer needs filters >= 1")

    def out_shape(self) -> tuple[int, int]:
        """(width, channels) of this block's output."""
        if self.kind == "Conv":
            return self.in_width, self.filters
        if self.kind == "MaxPool":
            if self.in_width % self.stride:
                raise NetworkFormatError(
                    f"MaxPool width {self.in_width} not divisible by stride {self.stride}"
                )
            return self.in_width // self.stride, self.in_channels
        if self.kind == "Mux":
            return 1, self.in_width * self.in_width * self.in_channels
        if self.kind == "Dense":
            return 1, self.filters
        return self.in_width, self.in_channels

    @property
    def weight_shape(self) -> tuple[int, int]:
        """(filters, inputs) of a Conv or Dense weight matrix: a Conv reads
        one kernel x kernel patch, a Dense its whole input image."""
        side = self.kernel if self.kind == "Conv" else self.in_width
        return self.filters, side * side * self.in_channels


@dataclass(frozen=True)
class ScaleShiftParams:
    """Per-channel fused batch-norm constants: y = c * x + b, with c = s * a."""

    c: tuple[float, ...]
    b: tuple[float, ...]
    s: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", tuple(float(v) for v in self.c))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        if len(self.c) != len(self.b):
            raise ValueError(f"scale/shift length mismatch: {len(self.c)} vs {len(self.b)}")
        if not self.c:
            raise ValueError("scale/shift constants must not be empty")

    @cached_property
    def _quantized(self) -> dict:
        """The constants quantized by (scale format, act format), filled by
        the pipeline as it meets each pair."""
        return {}


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple[LayerSpec, ...]
    clock_hz: float = 125e6
    act_format: FixedPointFormat = ACT_FORMAT
    scale_format: FixedPointFormat = SCALE_FORMAT

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise NetworkFormatError("network needs at least one layer")
        if not (math.isfinite(self.clock_hz) and self.clock_hz >= 1):
            raise NetworkFormatError(f"clock_hz must be a finite number >= 1 Hz, got {self.clock_hz}")
        self.validate()

    @property
    def input_width(self) -> int:
        return self.layers[0].in_width

    @property
    def input_channels(self) -> int:
        return self.layers[0].in_channels

    def validate(self) -> None:
        """Check adjacent-layer dimension compatibility and pixel intervals.
        Runs when the network is made."""
        width, chans = self.layers[0].in_width, self.layers[0].in_channels
        intervals = self.inferred_intervals()
        if self.layers[0].pixel_interval not in (0, 1):
            raise NetworkFormatError("first layer must have pixel_interval 1")
        image_side = True
        flat = False  # after a Mux or Dense the stream is one vector a frame
        for idx, layer in enumerate(self.layers):
            if flat and layer.kind in ("Conv", "MaxPool"):
                raise NetworkFormatError(f"layer {idx}: {layer.kind} after the stream is flattened")
            flat = flat or layer.kind in ("Mux", "Dense")
            if (layer.in_width, layer.in_channels) != (width, chans):
                raise NetworkFormatError(
                    f"layer {idx} ({layer.kind}) expects {layer.in_width}x{layer.in_width}x"
                    f"{layer.in_channels}, previous layer produces {width}x{width}x{chans}"
                )
            if layer.kind in ("Conv", "MaxPool") and layer.kernel > layer.in_width:
                raise NetworkFormatError(f"layer {idx}: kernel larger than image")
            if image_side and layer.pixel_interval not in (0, intervals[idx]):
                raise NetworkFormatError(
                    f"layer {idx}: pixel_interval {layer.pixel_interval} does not match "
                    f"the upstream pool cascade ({intervals[idx]})"
                )
            width, chans = layer.out_shape()
            if layer.kind == "Mux":
                # Downstream of the flattening Mux the stream is a vector and
                # intervals are no longer a pure pool product.
                image_side = False

    def inferred_intervals(self) -> tuple[int, ...]:
        """Per-layer input pixel interval following the pool cascade."""
        out: list[int] = []
        interval = 1
        for layer in self.layers:
            out.append(interval)
            if layer.kind == "MaxPool":
                interval *= layer.stride * layer.stride
        return tuple(out)


_FORMAT_KEYS = {"total_bits", "frac_bits"}
_LAYER_KEYS = {f.name for f in fields(LayerSpec)}
_LAYER_INTS = ("in_width", "in_channels", "kernel", "stride", "filters", "pixel_interval")
_TOP_KEYS = {"layers", "clock_hz", "act_format", "scale_format"}
INT_LIMIT = 1 << 20  # the largest integer a network file may give


def _json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise NetworkFormatError(f"invalid JSON: {e}") from e
    except RecursionError as e:
        raise NetworkFormatError("invalid JSON: nested too deeply") from e


def _integer(value, where: str) -> int:
    """A JSON integer of at most ``INT_LIMIT``; true and false are not integers."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise NetworkFormatError(f"{where}: expected a JSON integer, got {value!r}")
    if value > INT_LIMIT:
        raise NetworkFormatError(f"{where}: must be at most {INT_LIMIT}")
    return value


def _number(value, where: str) -> float:
    """A finite JSON number, as a float; true, false and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise NetworkFormatError(f"{where}: expected a JSON number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise NetworkFormatError(f"{where}: expected a finite number, got {value!r}")
    return x


def _parse_format(obj, where: str) -> FixedPointFormat:
    if not isinstance(obj, dict):
        raise NetworkFormatError(f"{where}: expected an object")
    unknown = set(obj) - _FORMAT_KEYS
    if unknown:
        raise NetworkFormatError(f"{where}: unknown keys {sorted(unknown)}")
    missing = _FORMAT_KEYS - set(obj)
    if missing:
        raise NetworkFormatError(f"{where}: missing keys {sorted(missing)}")
    total, frac = (_integer(obj[k], f"{where}.{k}") for k in ("total_bits", "frac_bits"))
    try:
        return FixedPointFormat(total, frac)
    except ValueError as e:
        raise NetworkFormatError(f"{where}: {e}") from e


def parse_network(text: str) -> NetworkSpec:
    """Parse and validate the JSON network description. Unknown keys are rejected."""
    obj = _json(text)
    if not isinstance(obj, dict):
        raise NetworkFormatError("top level must be an object")
    unknown = set(obj) - _TOP_KEYS
    if unknown:
        raise NetworkFormatError(f"unknown top-level keys {sorted(unknown)}")
    if "layers" not in obj or not isinstance(obj["layers"], list) or not obj["layers"]:
        raise NetworkFormatError("'layers' must be a non-empty list")
    layers = []
    for idx, entry in enumerate(obj["layers"]):
        if not isinstance(entry, dict):
            raise NetworkFormatError(f"layer {idx}: expected an object")
        unknown = set(entry) - _LAYER_KEYS
        if unknown:
            raise NetworkFormatError(f"layer {idx}: unknown keys {sorted(unknown)}")
        for req in ("kind", "in_width", "in_channels"):
            if req not in entry:
                raise NetworkFormatError(f"layer {idx}: missing key {req!r}")
        for key in _LAYER_INTS:
            if key in entry:
                _integer(entry[key], f"layer {idx}: {key}")
        if "epsilon" in entry:
            _number(entry["epsilon"], f"layer {idx}: epsilon")
        try:
            layers.append(LayerSpec(**entry))
        except (TypeError, NetworkFormatError) as e:
            raise NetworkFormatError(f"layer {idx}: {e}") from e
    act = _parse_format(obj["act_format"], "act_format") if "act_format" in obj else ACT_FORMAT
    scale = (
        _parse_format(obj["scale_format"], "scale_format") if "scale_format" in obj else SCALE_FORMAT
    )
    clock = _number(obj.get("clock_hz", 125e6), "clock_hz")
    return NetworkSpec(tuple(layers), clock, act, scale)


def parse_scale_shift(text: str) -> ScaleShiftParams:
    """Parse a weights directory's ScaleShift constants, the JSON object
    ``{"c": [...], "b": [...], "s": <number>}`` with ``s`` optional."""
    obj = _json(text)
    if not isinstance(obj, dict):
        raise NetworkFormatError("expected a JSON object with keys 'c' and 'b'")
    unknown = set(obj) - {"c", "b", "s"}
    if unknown:
        raise NetworkFormatError(f"unknown keys {sorted(unknown)}")
    missing = {"c", "b"} - set(obj)
    if missing:
        raise NetworkFormatError(f"missing keys {sorted(missing)}")
    if not (isinstance(obj["c"], list) and isinstance(obj["b"], list)):
        raise NetworkFormatError("'c' and 'b' must be lists of numbers")
    c, b = ([_number(v, f"{key}[{k}]") for k, v in enumerate(obj[key])] for key in ("c", "b"))
    s = _number(obj.get("s", 1.0), "s")
    try:
        return ScaleShiftParams(tuple(c), tuple(b), s)
    except ValueError as e:
        raise NetworkFormatError(str(e)) from e


def load_network(path: str) -> NetworkSpec:
    with open(path, "r", encoding="utf-8") as f:
        return parse_network(f.read())


def _conv_group(width: int, d_in: int, d_out: int, eps: float, interval: int) -> list[LayerSpec]:
    return [
        LayerSpec("Buffer", width, d_in, kernel=3, pixel_interval=interval),
        LayerSpec("Conv", width, d_in, kernel=3, stride=1, filters=d_out, epsilon=eps, pixel_interval=interval),
        LayerSpec("ScaleShift", width, d_out, activation="ReLU", pixel_interval=interval),
    ]


def _pool_group(width: int, chans: int, interval: int) -> list[LayerSpec]:
    return [
        LayerSpec("Buffer", width, chans, kernel=2, pixel_interval=interval),
        LayerSpec("MaxPool", width, chans, kernel=2, stride=2, pixel_interval=interval),
    ]


def vgg7_cifar10(clock_hz: float = 125e6) -> NetworkSpec:
    """The half-size VGG-7 CIFAR10 block sequence used throughout the reports."""
    layers: list[LayerSpec] = []
    layers += _conv_group(32, 3, 64, 0.7, 1)
    layers += _conv_group(32, 64, 64, 1.4, 1)
    layers += _pool_group(32, 64, 1)
    layers += _conv_group(16, 64, 128, 1.4, 4)
    layers += _conv_group(16, 128, 128, 1.4, 4)
    layers += _pool_group(16, 128, 4)
    layers += _conv_group(8, 128, 256, 1.4, 16)
    layers += _conv_group(8, 256, 256, 1.4, 16)
    layers += _pool_group(8, 256, 16)
    layers += [
        LayerSpec("Fifo", 4, 256, pixel_interval=64),
        LayerSpec("Mux", 4, 256, pixel_interval=64),
        LayerSpec("Dense", 1, 4096, filters=128, epsilon=1.0),
        LayerSpec("ScaleShift", 1, 128, activation="ReLU"),
        LayerSpec("Mux", 1, 128),
        LayerSpec("Dense", 1, 128, filters=10, epsilon=1.0),
    ]
    return NetworkSpec(tuple(layers), clock_hz)

"""Seeded inputs: the network, ternarized weights, scale-shift constants,
images and 16-bit probe vectors.

Every draw comes from its own ``numpy`` stream keyed by (seed, purpose,
index), so one seed always gives the same inputs, whichever workload asks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ternroll import FloatMatrix, ImageStream, LayerSpec, NetworkSpec, ScaleShiftParams, ternarize
from ternroll import vgg7_cifar10

# Draw purposes: one independent stream each.
_WEIGHTS, _PARAMS, _IMAGES, _PROBES = range(4)


@dataclass(frozen=True)
class Size:
    """How big one workload's inputs are: the full VGG-7 or a smoke copy."""

    name: str
    images: int  # distinct images the simulate loop cycles through
    probes: int  # seeded 16-bit vectors per compile-flat oracle check
    setup_repeats: int  # set-ups per run; setup_s is their median

    def network(self) -> NetworkSpec:
        return vgg7_cifar10() if self.name == "full" else _smoke_vgg7()


FULL = Size("full", images=16, probes=64, setup_repeats=15)
SMOKE = Size("smoke", images=8, probes=8, setup_repeats=2)


def _smoke_vgg7() -> NetworkSpec:
    """VGG-7's block sequence at 16x16 input with 4-8 channels.

    It keeps every block kind, pixel interval and epsilon of the full network
    so a smoke run takes every code path in seconds.
    """
    layers: list[LayerSpec] = []
    width, chans, interval = 16, 3, 1
    for out in (4, 4, "pool", 8, 8, "pool", 8, 8, "pool"):
        if out == "pool":
            layers += [
                LayerSpec("Buffer", width, chans, kernel=2, pixel_interval=interval),
                LayerSpec("MaxPool", width, chans, kernel=2, stride=2, pixel_interval=interval),
            ]
            width, interval = width // 2, interval * 4
            continue
        eps = 0.7 if chans == 3 else 1.4
        layers += [
            LayerSpec("Buffer", width, chans, kernel=3, pixel_interval=interval),
            LayerSpec("Conv", width, chans, kernel=3, filters=out, epsilon=eps, pixel_interval=interval),
            LayerSpec("ScaleShift", width, out, activation="ReLU", pixel_interval=interval),
        ]
        chans = out
    flat = width * width * chans
    layers += [
        LayerSpec("Fifo", width, chans, pixel_interval=interval),
        LayerSpec("Mux", width, chans, pixel_interval=interval),
        LayerSpec("Dense", 1, flat, filters=8, epsilon=1.0),
        LayerSpec("ScaleShift", 1, 8, activation="ReLU"),
        LayerSpec("Mux", 1, 8),
        LayerSpec("Dense", 1, 8, filters=10, epsilon=1.0),
    ]
    net = NetworkSpec(tuple(layers))
    net.validate()
    return net


def layer_names(net: NetworkSpec) -> dict[int, str]:
    """``conv1``.. and ``dense1``.. by block index, in network order."""
    names: dict[int, str] = {}
    for idx, layer in enumerate(net.layers):
        if layer.kind in ("Conv", "Dense"):
            kind = layer.kind.lower()
            names[idx] = f"{kind}{sum(n.startswith(kind) for n in names.values()) + 1}"
    return names


@dataclass(frozen=True)
class Inputs:
    net: NetworkSpec
    names: dict[int, str]  # block index -> conv1 .. dense2
    weights: dict  # block index -> TernaryMatrix or ScaleShiftParams
    images: tuple  # ImageStream pool
    probes: dict[int, np.ndarray]  # conv block index -> (cols, probes) int64

    def conv_indices(self) -> list[int]:
        return [i for i, n in self.names.items() if n.startswith("conv")]


def _rng(seed: int, purpose: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose, index])


def build(size: Size, seed: int, tracer) -> Inputs:
    """Set-up: draw Gaussian weights and ternarize every Conv/Dense layer at
    its epsilon, then draw scale-shift constants, images and probe vectors."""
    net = size.network()
    names = layer_names(net)
    weights: dict = {}
    for idx, name in names.items():
        layer = net.layers[idx]
        cols = layer.kernel * layer.kernel * layer.in_channels if layer.kind == "Conv" else layer.in_channels
        w = FloatMatrix(_rng(seed, _WEIGHTS, idx).standard_normal((layer.filters, cols)))
        with tracer.span("ternarize.ternarize", layer=name):
            weights[idx], _ = ternarize(w, layer.epsilon)
    for idx, layer in enumerate(net.layers):
        if layer.kind == "ScaleShift":
            weights[idx] = _scale_shift_params(weights[idx - 1], _rng(seed, _PARAMS, idx))
    width, chans = net.input_width, net.input_channels
    # Amplitudes double over a cycle of eight, from 16 to 2048 (raw 256 to
    # 32768 in Q12.4), so the louder images saturate and the clamps run too.
    amps = [256 << (k % 8) for k in range(size.images)]
    images = tuple(
        ImageStream(_rng(seed, _IMAGES, k).integers(-amp, amp, size=(width, width, chans)), 4)
        for k, amp in enumerate(amps)
    )
    probes = {
        idx: _rng(seed, _PROBES, idx).integers(-(2**15), 2**15, size=(weights[idx].cols, size.probes))
        for idx, name in names.items()
        if name.startswith("conv")
    }
    return Inputs(net, names, weights, images, probes)


def _scale_shift_params(t, rng: np.random.Generator) -> ScaleShiftParams:
    """Constants that keep activations in range: the scale undoes the growth
    of a sum over the row's nonzero terms, so few values saturate."""
    nnz = max(1.0, float(np.count_nonzero(t.entries)) / t.rows)
    c = 1.5 / np.sqrt(nnz) * rng.uniform(0.75, 1.25, t.rows)
    b = rng.uniform(-0.5, 0.5, t.rows)
    return ScaleShiftParams(tuple(c), tuple(b))

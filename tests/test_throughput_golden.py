"""Golden reports of the throughput model over a set of networks.

Each entry pins the whole ``ThroughputReport`` of one network: every block's
output width, channels and rate (values every cycles), the latency
estimate, the FIFO high-water marks and the exact frame rate. The networks
cover the image and vector sides of every block kind, a Dense fed directly
by the image side, and Mux bursts whose size and interval divide either way
or not at all.
"""

from fractions import Fraction

import pytest

from ternroll import LayerSpec, NetworkSpec, throughput_model, vgg7_cifar10

from .test_pipeline import tiny_net


def _wide_net() -> NetworkSpec:
    return NetworkSpec(
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


def _dense_on_image_net() -> NetworkSpec:
    # the Dense takes the pooled 2x2x3 image without a flattening Mux, one of
    # its 12 inputs a cycle; the vector side then runs every pass-through kind
    return NetworkSpec(
        (
            LayerSpec("Buffer", 6, 2, kernel=3),
            LayerSpec("Conv", 6, 2, kernel=3, filters=3),
            LayerSpec("MaxPool", 6, 3, kernel=3, stride=3),
            LayerSpec("Fifo", 2, 3),
            LayerSpec("Dense", 2, 3, filters=5),
            LayerSpec("ScaleShift", 1, 5),
            LayerSpec("Fifo", 1, 5),
            LayerSpec("Buffer", 1, 5),
            LayerSpec("Mux", 1, 5),
            LayerSpec("Dense", 1, 5, filters=2),
        ),
        clock_hz=3e6,
    )


def _mux_indivisible_net() -> NetworkSpec:
    # 3 channels every 4 cycles at the first Mux, 6 values every 16 cycles at
    # the second: neither count divides the other
    return NetworkSpec(
        (
            LayerSpec("Buffer", 4, 3, kernel=3),
            LayerSpec("Conv", 4, 3, kernel=3, filters=3),
            LayerSpec("MaxPool", 4, 3, kernel=2, stride=2),
            LayerSpec("Fifo", 2, 3),
            LayerSpec("Mux", 2, 3),
            LayerSpec("Dense", 1, 12, filters=6),
            LayerSpec("Mux", 1, 6),
            LayerSpec("Dense", 1, 6, filters=4),
            LayerSpec("Mux", 1, 4),
        ),
        clock_hz=1e6,
    )


def _mux_interval_multiple_net() -> NetworkSpec:
    # 2 channels every 4 cycles: the Mux emits one value every 2 cycles
    return NetworkSpec(
        (
            LayerSpec("Conv", 4, 1, kernel=1, filters=2),
            LayerSpec("MaxPool", 4, 2, kernel=2, stride=2),
            LayerSpec("Mux", 2, 2),
            LayerSpec("Dense", 1, 8, filters=2),
        ),
        clock_hz=1.6e7,
    )


NETS = {
    "vgg7": vgg7_cifar10,
    "tiny": tiny_net,
    "wide16": _wide_net,
    "dense_on_image": _dense_on_image_net,
    "mux_indivisible": _mux_indivisible_net,
    "mux_interval_multiple": _mux_interval_multiple_net,
}

# name: (blocks as (index, kind, out_width, out_channels, values, cycles),
#        latency_cycles, fifo_high_water, fps_exact)
GOLDEN = {
    "vgg7": (
        (
            (0, "Buffer", 32, 3, 3, 1),
            (1, "Conv", 32, 64, 64, 1),
            (2, "ScaleShift", 32, 64, 64, 1),
            (3, "Buffer", 32, 64, 64, 1),
            (4, "Conv", 32, 64, 64, 1),
            (5, "ScaleShift", 32, 64, 64, 1),
            (6, "Buffer", 32, 64, 64, 1),
            (7, "MaxPool", 16, 64, 64, 4),
            (8, "Buffer", 16, 64, 64, 4),
            (9, "Conv", 16, 128, 128, 4),
            (10, "ScaleShift", 16, 128, 128, 4),
            (11, "Buffer", 16, 128, 128, 4),
            (12, "Conv", 16, 128, 128, 4),
            (13, "ScaleShift", 16, 128, 128, 4),
            (14, "Buffer", 16, 128, 128, 4),
            (15, "MaxPool", 8, 128, 128, 16),
            (16, "Buffer", 8, 128, 128, 16),
            (17, "Conv", 8, 256, 256, 16),
            (18, "ScaleShift", 8, 256, 256, 16),
            (19, "Buffer", 8, 256, 256, 16),
            (20, "Conv", 8, 256, 256, 16),
            (21, "ScaleShift", 8, 256, 256, 16),
            (22, "Buffer", 8, 256, 256, 16),
            (23, "MaxPool", 4, 256, 256, 64),
            (24, "Fifo", 4, 256, 256, 64),
            (25, "Mux", 1, 4096, 4, 1),
            (26, "Dense", 1, 128, 128, 1024),
            (27, "ScaleShift", 1, 128, 128, 1024),
            (28, "Mux", 1, 128, 1, 8),
            (29, "Dense", 1, 10, 10, 1024),
        ),
        3093,
        {24: 1024},
        Fraction(1953125, 16),
    ),
    "tiny": (
        (
            (0, "Buffer", 8, 1, 1, 1),
            (1, "Conv", 8, 4, 4, 1),
            (2, "ScaleShift", 8, 4, 4, 1),
            (3, "MaxPool", 4, 4, 4, 4),
            (4, "Mux", 1, 64, 1, 1),
            (5, "Dense", 1, 3, 3, 64),
        ),
        86,
        {},
        Fraction(1562500, 1),
    ),
    "wide16": (
        (
            (0, "Buffer", 16, 1, 1, 1),
            (1, "Conv", 16, 4, 4, 1),
            (2, "ScaleShift", 16, 4, 4, 1),
            (3, "MaxPool", 8, 4, 4, 4),
            (4, "Mux", 1, 256, 1, 1),
            (5, "Dense", 1, 3, 3, 256),
        ),
        286,
        {},
        Fraction(390625, 1),
    ),
    "dense_on_image": (
        (
            (0, "Buffer", 6, 2, 2, 1),
            (1, "Conv", 6, 3, 3, 1),
            (2, "MaxPool", 2, 3, 3, 9),
            (3, "Fifo", 2, 3, 3, 9),
            (4, "Dense", 1, 5, 5, 36),
            (5, "ScaleShift", 1, 5, 5, 36),
            (6, "Fifo", 1, 5, 5, 36),
            (7, "Buffer", 1, 5, 5, 36),
            (8, "Mux", 1, 5, 5, 36),
            (9, "Dense", 1, 2, 2, 36),
        ),
        76,
        {3: 6, 6: 5},
        Fraction(250000, 3),
    ),
    "mux_indivisible": (
        (
            (0, "Buffer", 4, 3, 3, 1),
            (1, "Conv", 4, 3, 3, 1),
            (2, "MaxPool", 2, 3, 3, 4),
            (3, "Fifo", 2, 3, 3, 4),
            (4, "Mux", 1, 12, 3, 4),
            (5, "Dense", 1, 6, 6, 16),
            (6, "Mux", 1, 6, 6, 16),
            (7, "Dense", 1, 4, 4, 16),
            (8, "Mux", 1, 4, 1, 4),
        ),
        69,
        {3: 6},
        Fraction(62500, 1),
    ),
    "mux_interval_multiple": (
        (
            (0, "Conv", 4, 2, 2, 1),
            (1, "MaxPool", 2, 2, 2, 4),
            (2, "Mux", 1, 8, 1, 2),
            (3, "Dense", 1, 2, 2, 16),
        ),
        15,
        {},
        Fraction(1000000, 1),
    ),
}


@pytest.mark.parametrize("name", sorted(NETS))
def test_throughput_report_golden(name):
    blocks, latency, fifo, fps = GOLDEN[name]
    rep = throughput_model(NETS[name]())
    got = tuple((b.index, b.kind, b.out_width, b.out_channels, b.values, b.cycles) for b in rep.blocks)
    assert got == blocks
    assert rep.latency_cycles == latency
    assert rep.fifo_high_water == fifo
    assert rep.fps_exact == fps
    assert rep.frames_per_sec == int(fps)

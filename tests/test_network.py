import json

import pytest

from ternroll.network import (
    LayerSpec,
    NetworkFormatError,
    NetworkSpec,
    ScaleShiftParams,
    format_network,
    parse_network,
    vgg7_cifar10,
)


def small_net_obj():
    return {
        "clock_hz": 1e8,
        "layers": [
            {"kind": "Buffer", "in_width": 8, "in_channels": 1, "kernel": 3},
            {"kind": "Conv", "in_width": 8, "in_channels": 1, "kernel": 3, "filters": 4},
            {"kind": "ScaleShift", "in_width": 8, "in_channels": 4, "activation": "ReLU"},
            {"kind": "MaxPool", "in_width": 8, "in_channels": 4, "kernel": 2, "stride": 2},
            {"kind": "Mux", "in_width": 4, "in_channels": 4},
            {"kind": "Dense", "in_width": 1, "in_channels": 64, "filters": 3},
        ],
    }


def test_parse_small_net():
    net = parse_network(json.dumps(small_net_obj()))
    assert len(net.layers) == 6
    assert net.layers[1].filters == 4
    assert net.act_format.frac_bits == 4
    assert net.scale_format.frac_bits == 6


def test_unknown_top_key_rejected():
    obj = small_net_obj()
    obj["frobnicate"] = 1
    with pytest.raises(NetworkFormatError, match="unknown top-level"):
        parse_network(json.dumps(obj))


def test_unknown_layer_key_rejected():
    obj = small_net_obj()
    obj["layers"][0]["padding"] = 7
    with pytest.raises(NetworkFormatError, match="unknown keys"):
        parse_network(json.dumps(obj))


def test_missing_required_key():
    obj = small_net_obj()
    del obj["layers"][0]["in_width"]
    with pytest.raises(NetworkFormatError, match="missing key"):
        parse_network(json.dumps(obj))


def test_dimension_mismatch_rejected():
    obj = small_net_obj()
    obj["layers"][2]["in_channels"] = 5
    with pytest.raises(NetworkFormatError, match="expects"):
        parse_network(json.dumps(obj))


def test_first_layer_interval_must_be_one():
    obj = small_net_obj()
    obj["layers"][0]["pixel_interval"] = 4
    with pytest.raises(NetworkFormatError, match="pixel_interval 1"):
        parse_network(json.dumps(obj))


def test_declared_interval_checked_against_cascade():
    obj = small_net_obj()
    obj["layers"][4]["pixel_interval"] = 2  # cascade says 4 after the pool
    with pytest.raises(NetworkFormatError, match="cascade"):
        parse_network(json.dumps(obj))


@pytest.mark.parametrize("kind", ["Conv", "MaxPool"])
def test_image_block_after_the_flattened_stream_rejected(kind):
    obj = small_net_obj()
    obj["layers"].append({"kind": kind, "in_width": 1, "in_channels": 3, "filters": 2})
    with pytest.raises(NetworkFormatError, match=f"layer 6: {kind} after the stream is flattened"):
        parse_network(json.dumps(obj))


def test_even_conv_kernel_rejected():
    with pytest.raises(NetworkFormatError, match="odd"):
        LayerSpec("Conv", 8, 1, kernel=2, filters=4)


def test_round_trip():
    net = parse_network(json.dumps(small_net_obj()))
    again = parse_network(format_network(net))
    assert again == net


def test_scale_shift_params_validation():
    with pytest.raises(ValueError):
        ScaleShiftParams((1.0, 2.0), (0.0,))
    p = ScaleShiftParams((1.0,), (0.0,), 0.5)
    assert p.channels == 1


def test_vgg7_shape():
    net = vgg7_cifar10()
    kinds = [l.kind for l in net.layers]
    assert len(kinds) == 30
    assert kinds[:8] == [
        "Buffer", "Conv", "ScaleShift", "Buffer", "Conv", "ScaleShift", "Buffer", "MaxPool",
    ]
    assert kinds[-6:] == ["Fifo", "Mux", "Dense", "ScaleShift", "Mux", "Dense"]
    convs = [l for l in net.layers if l.kind == "Conv"]
    assert [c.filters for c in convs] == [64, 64, 128, 128, 256, 256]
    assert [c.epsilon for c in convs] == [0.7, 1.4, 1.4, 1.4, 1.4, 1.4]
    assert net.inferred_intervals()[8] == 4
    assert net.inferred_intervals()[16] == 16
    assert net.inferred_intervals()[24] == 64
    net.validate()


def test_vgg7_round_trips_through_json():
    net = vgg7_cifar10()
    assert parse_network(format_network(net)) == net


@pytest.mark.parametrize("clock", [float("inf"), float("nan"), 1e-300, 0.5, 0.0, -1e8])
def test_clock_must_be_finite_and_at_least_one_hz(clock):
    layers = (LayerSpec("Buffer", 4, 1),)
    with pytest.raises(NetworkFormatError, match="clock_hz"):
        NetworkSpec(layers, clock)
    obj = small_net_obj()
    obj["clock_hz"] = clock
    with pytest.raises(NetworkFormatError, match="clock_hz"):
        parse_network(json.dumps(obj))
    assert NetworkSpec(layers, 1.0).clock_hz == 1.0


@pytest.mark.parametrize("clock", [None, "fast", [1e8]])
def test_clock_must_be_a_number(clock):
    obj = small_net_obj()
    obj["clock_hz"] = clock
    with pytest.raises(NetworkFormatError, match="clock_hz"):
        parse_network(json.dumps(obj))

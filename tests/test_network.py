import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternroll.network import (
    LAYER_KINDS,
    LayerSpec,
    NetworkFormatError,
    NetworkSpec,
    ScaleShiftParams,
    load_network,
    parse_network,
    parse_scale_shift,
    vgg7_cifar10,
)

from .writers import format_network

VGG7_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "vgg7_cifar10.json"


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
    want = r"^layer 4: pixel_interval 2 does not match the upstream pool cascade \(4\)$"
    with pytest.raises(NetworkFormatError, match=want):
        parse_network(json.dumps(obj))


def test_a_broken_chain_is_refused_when_the_network_is_made():
    layers = (LayerSpec("Conv", 8, 1, kernel=3, filters=4), LayerSpec("ScaleShift", 8, 5))
    want = r"^layer 1 \(ScaleShift\) expects 8x8x5, previous layer produces 8x8x4$"
    with pytest.raises(NetworkFormatError, match=want):
        NetworkSpec(layers)


@pytest.mark.parametrize("kind", ["Conv", "MaxPool"])
def test_image_block_after_the_flattened_stream_rejected(kind):
    obj = small_net_obj()
    obj["layers"].append({"kind": kind, "in_width": 1, "in_channels": 3, "filters": 2})
    with pytest.raises(NetworkFormatError, match=f"layer 6: {kind} after the stream is flattened"):
        parse_network(json.dumps(obj))


def test_even_conv_kernel_rejected():
    with pytest.raises(NetworkFormatError, match="odd"):
        LayerSpec("Conv", 8, 1, kernel=2, filters=4)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf"), -0.5], ids=["nan", "inf", "-inf", "negative"])
def test_layer_epsilon_must_be_finite_and_non_negative(eps):
    with pytest.raises(NetworkFormatError, match=f"^epsilon must be a finite number >= 0, got {eps}$"):
        LayerSpec("Conv", 8, 1, kernel=3, filters=4, epsilon=eps)


def test_round_trip():
    net = parse_network(json.dumps(small_net_obj()))
    again = parse_network(format_network(net))
    assert again == net


def test_weight_shape():
    assert LayerSpec("Conv", 8, 3, kernel=3, filters=5).weight_shape == (5, 27)
    assert LayerSpec("Dense", 1, 64, filters=3).weight_shape == (3, 64)
    assert LayerSpec("Dense", 4, 2, filters=3).weight_shape == (3, 32)


def test_scale_shift_params_validation():
    with pytest.raises(ValueError):
        ScaleShiftParams((1.0, 2.0), (0.0,))
    p = ScaleShiftParams((1.0,), (0.0,), 0.5)
    assert len(p.c) == 1


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


def test_vgg7_builder_equals_the_shipped_config():
    assert vgg7_cifar10() == load_network(str(VGG7_CONFIG))


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


@pytest.mark.parametrize("clock", [None, "fast", [1e8], True, "125e6"])
def test_clock_must_be_a_number(clock):
    obj = small_net_obj()
    obj["clock_hz"] = clock
    with pytest.raises(NetworkFormatError, match="clock_hz"):
        parse_network(json.dumps(obj))


def _with(edits: dict) -> str:
    """The small network's JSON with (layer index or section, key) -> value edits."""
    obj = small_net_obj()
    obj["act_format"] = {"total_bits": 16, "frac_bits": 4}
    obj["scale_format"] = {"total_bits": 16, "frac_bits": 6}
    for (where, key), value in edits.items():
        target = obj if where is None else obj["layers"][where] if isinstance(where, int) else obj[where]
        if isinstance(target, dict):
            target[key] = value
    return json.dumps(obj)


@pytest.mark.parametrize(
    "text, field",
    [
        (_with({("act_format", "frac_bits"): [1]}), "act_format.frac_bits"),
        (_with({}).replace('"total_bits": 16', '"total_bits": 1e999'), "act_format.total_bits"),
        (_with({(0, "in_width"): 4.5}), "layer 0: in_width"),
        (_with({(5, "filters"): 2.5}), "layer 5: filters"),
        (_with({("act_format", "total_bits"): 16.9, ("act_format", "frac_bits"): 4.2}), "act_format.total_bits"),
        (_with({(0, "in_width"): True, (None, "clock_hz"): True}), "layer 0: in_width"),
        (_with({(1, "epsilon"): True}), "layer 1: epsilon"),
        (_with({(1, "epsilon"): "0.7"}), "layer 1: epsilon"),
        (_with({(3, "stride"): False}), "layer 3: stride"),
        ('{"layers": ' + "[" * 100000 + "]" * 100000 + "}", "nested too deeply"),
        (_with({(0, "in_width"): 10**400}), "layer 0: in_width: must be at most 1048576"),
        (_with({(0, "in_channels"): 10**12}), "layer 0: in_channels: must be at most 1048576"),
        (_with({(5, "pixel_interval"): (1 << 20) + 1}), "layer 5: pixel_interval: must be at most 1048576"),
    ],
    ids=["list-frac", "1e999-total", "float-width", "float-filters", "float-format", "bool-width-clock",
         "bool-epsilon", "string-epsilon", "bool-stride", "deep", "huge-width", "huge-channels", "huge-interval"],
)
def test_network_json_numbers_of_the_right_type(text, field):
    with pytest.raises(NetworkFormatError, match=field):
        parse_network(text)


def test_scale_shift_json():
    p = parse_scale_shift('{"c": [1, 0.5], "b": [-2, 0], "s": 2}')
    assert (p.c, p.b, p.s) == ((1.0, 0.5), (-2.0, 0.0), 2.0)
    assert parse_scale_shift('{"c": [1], "b": [0]}').s == 1.0


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"c": ["1", "2"], "b": [0, 0]}', r"c\[0\]: expected a JSON number"),
        ('{"c": [1, 1], "b": [0, true]}', r"b\[1\]: expected a JSON number"),
        ('{"c": [1], "b": [0], "s": "2"}', "s: expected a JSON number"),
        ('{"c": "12", "b": [0, 0]}', "must be lists"),
        ('{"c": [1e999], "b": [0]}', "finite"),
        ('{"c": [' + "9" * 400 + '], "b": [0]}', "finite"),
        ('{"c": [1, 2], "b": [0]}', "length mismatch"),
        ('{"c": [], "b": []}', "must not be empty"),
    ],
    ids=["string-c", "bool-b", "string-s", "string-body", "1e999", "big-int", "lengths", "empty"],
)
def test_scale_shift_json_errors(text, message):
    with pytest.raises(NetworkFormatError, match=message):
        parse_scale_shift(text)


# JSON values of every type, some of them nearly right, put in place of
# values of the small network; or any text.
ANY = (
    st.none()
    | st.booleans()
    | st.integers(-2, 40)
    | st.just(10**400)
    | st.floats()
    | st.sampled_from(["Conv", "ReLU", "1", ""])
    | st.lists(st.integers(0, 3), max_size=2)
)
LAYER_KEYS = ("kind", "in_width", "in_channels", "kernel", "stride", "filters", "epsilon", "pixel_interval", "activation")
EDIT = st.one_of(
    st.tuples(st.integers(0, 5), st.sampled_from(LAYER_KEYS + ("bogus",)), ANY | st.sampled_from(LAYER_KINDS)),
    st.tuples(st.sampled_from(["act_format", "scale_format"]), st.sampled_from(["total_bits", "frac_bits", "x"]), ANY),
    st.tuples(st.none(), st.sampled_from(["clock_hz", "act_format", "layers", "bogus"]), ANY),
)
# top-level edits last, so that the layers and formats they replace are still there to edit
NETWORK_TEXT = st.lists(EDIT, max_size=3).map(
    lambda edits: _with({(w, k): v for w, k, v in sorted(edits, key=lambda e: e[0] is None)})
) | st.text()
SCALE_SHIFT_TEXT = (
    st.fixed_dictionaries({}, optional={"c": st.lists(ANY, max_size=3) | ANY, "b": st.lists(ANY, max_size=3) | ANY, "s": ANY, "x": ANY})
    .map(json.dumps)
    | st.text()
)


@settings(max_examples=300, deadline=None)
@given(text=NETWORK_TEXT)
def test_parse_network_parses_or_raises_its_format_error(text):
    try:
        parse_network(text)
    except NetworkFormatError:
        pass


@settings(max_examples=300, deadline=None)
@given(text=SCALE_SHIFT_TEXT)
def test_parse_scale_shift_parses_or_raises_its_format_error(text):
    try:
        parse_scale_shift(text)
    except NetworkFormatError:
        pass

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ternroll import (
    AdderGraph,
    bu_cse,
    build_tree,
    evaluate_batch,
    no_cse,
    schedule_serial,
    td_cse,
)
from ternroll import netlist
from ternroll.netlist import NetlistParseError, emit, parse
from ternroll.treegen import ADD, DELAY, IN, KINDS, OUT, GraphValidationError

from . import netlist_ref
from .trits import random_ternary


def test_empty_graph_header_only():
    text = emit(AdderGraph())
    assert text == "ngl inputs 0 outputs 0 nodes 0 digits 1 total 16 aligned 1\n"
    g = parse(text)
    assert len(g.kind) == len(g.nodes) == 0


def test_filter_tree_netlist_reconstructs_row(filter_matrix):
    g = build_tree(no_cse(filter_matrix), 2, name="filter")
    text = emit(g)
    adds = [l for l in text.splitlines() if " add " in l]
    assert len(adds) == 4
    back = parse(text)
    # the emitted adders reconstruct z0 = -a + c + e + f - h
    coeff = np.zeros(9, dtype=int)
    unit = np.eye(9, dtype=np.int64)
    vals = evaluate_batch(back, unit)
    assert vals[0].tolist() == [-1, 0, 1, 0, 1, 1, 0, -1, 0]


def test_round_trip_behavior(rng):
    for _ in range(10):
        m = random_ternary(6, 10, 0.5, rng)
        method = [no_cse, td_cse, bu_cse][int(rng.integers(3))]
        g = schedule_serial(build_tree(method(m), int(rng.integers(2, 4))), 1)
        back = parse(emit(g))
        xs = rng.integers(-(2**15), 2**15, size=(10, 64), dtype=np.int64)
        assert np.array_equal(evaluate_batch(back, xs), evaluate_batch(g, xs))


def test_emit_deterministic(m7x6):
    g = build_tree(td_cse(m7x6), 2)
    assert emit(g) == emit(g)


def test_emit_rejects_invalid_graph():
    # node 0 is an input, node 1 an add at stage 2 of +node0 -node0: no such
    # graph can be made, so none reaches emit
    with pytest.raises(GraphValidationError, match="add node 1 at stage 2 reads node 0 at stage 0"):
        AdderGraph([IN, ADD], [0, 2], [0, 0, 2], [0, 0], [1, -1])


def test_parse_forward_reference():
    text = (
        "ngl inputs 1 outputs 0 nodes 2 digits 1 total 16 aligned 1\n"
        "node 0 in 0 16\n"
        "node 1 add 1 16 +0 -2\n"
    )
    with pytest.raises(NetlistParseError, match="dangling"):
        parse(text)


@pytest.mark.parametrize("operand", ["+\u0663", "-\u00b2"], ids=["arabic-indic-3", "superscript-2"])
def test_parse_rejects_non_ascii_operand_digits(operand):
    text = (
        "ngl inputs 1 outputs 0 nodes 2 digits 1 total 16 aligned 1\n"
        "node 0 in 0 16\n"
        f"node 1 add 1 16 +0 {operand}\n"
    )
    with pytest.raises(NetlistParseError, match="line 3: field 7: bad signed operand"):
        parse(text)


TWO_INPUT_ADD = (
    "ngl inputs 2 outputs 1 nodes 4 digits 1 total 16 aligned 1\n"
    "node 0 in 0 16\n"
    "node 1 in 0 16\n"
    "node 2 add 1 16 +0 +1\n"
    "node 3 out 1 16 +2\n"
)


def test_parse_reports_an_invalid_graph_as_a_parse_error():
    assert len(parse(TWO_INPUT_ADD).nodes) == 4
    # the add at stage 5 reads two stage-0 inputs
    with pytest.raises(NetlistParseError, match="add node 2 at stage 5 reads node 0 at stage 0"):
        parse(TWO_INPUT_ADD.replace("add 1", "add 5").replace("out 1", "out 5"))


def test_parse_rejects_a_stage_beyond_int64():
    text = "ngl inputs 0 outputs 1 nodes 1 digits 1 total 16 aligned 0\nnode 0 out 9223372036854775808 16\n"
    with pytest.raises(NetlistParseError, match="line 2: stage 9223372036854775808 is out of range"):
        parse(text)
    assert parse(text.replace("808", "807")).stage.tolist() == [(1 << 63) - 1]


@pytest.mark.parametrize(
    "old, new",
    [
        ("inputs 2", "inputs \u0662"),
        ("nodes 4", "nodes 4\u0660"),
        ("total 16", "total 1_6"),
        ("node 1 in", "node \u0661 in"),
        ("node 2 add", "node +2 add"),
        ("add 1 16", "add \u0661 16"),
        ("out 1 16", "out 1 1_6"),
    ],
    ids=["header-arabic-indic", "header-trailing-arabic-indic", "header-underscore", "node-id-arabic-indic",
         "node-id-plus", "stage-arabic-indic", "width-underscore"],
)
def test_parse_takes_ascii_digit_integers_only(old, new):
    with pytest.raises(NetlistParseError, match="expected integer"):
        parse(TWO_INPUT_ADD.replace(old, new, 1))


@st.composite
def ngl_texts(draw):
    """Netlists whose header counts match their nodes, so that they reach
    graph validation, with at most one character then replaced."""
    kinds, lines = [], []
    for i in range(draw(st.integers(0, 6))):
        kinds.append(draw(st.sampled_from(["in", "add", "delay", "out"])))
        ops = draw(st.lists(st.tuples(st.sampled_from("+-"), st.integers(0, max(i - 1, 0))), max_size=3))
        refs = "".join(f" {sign}{ref}" for sign, ref in ops)
        lines.append(f"node {i} {kinds[-1]} {draw(st.integers(0, 3))} 16{refs}")
    aligned = draw(st.sampled_from("01"))
    head = f"ngl inputs {kinds.count('in')} outputs {kinds.count('out')} nodes {len(kinds)} digits 1 total 16"
    text = "\n".join([f"{head} aligned {aligned}", *lines]) + "\n"
    if draw(st.booleans()):
        pos = draw(st.integers(0, len(text) - 1))
        text = text[:pos] + draw(st.sampled_from("0123456789+-_ x\n\u0661")) + text[pos + 1 :]
    return text


@settings(max_examples=300, deadline=None)
@given(text=ngl_texts() | st.text())
def test_parse_parses_or_raises_its_format_error(text):
    try:
        parse(text)
    except NetlistParseError:
        pass


@pytest.mark.parametrize(
    "mutate",
    [
        lambda t: t.replace("ngl", "xgl", 1),
        lambda t: t.replace("node 0 in 0 16", "node 0 frob 0 16"),
        lambda t: t.replace("nodes 16", "nodes 9"),
        lambda t: t + "node 99 add 1 16 +0 +1\n",
        lambda t: t.replace("aligned 0", "aligned 7"),
        lambda t: t.replace("total 16", "total 12", 1),
    ],
)
def test_parse_structured_mutations_error(filter_matrix, mutate):
    text = emit(build_tree(no_cse(filter_matrix), 2, align_outputs=False))
    assert text.splitlines()[0].endswith("nodes 16 digits 1 total 16 aligned 0")
    assert mutate(text) != text
    with pytest.raises(NetlistParseError):
        parse(mutate(text))


def test_fuzzed_mutations_never_silently_misparse(m7x6, rng):
    g = build_tree(td_cse(m7x6), 2)
    text = emit(g)
    xs = rng.integers(-(2**10), 2**10, size=(6, 16), dtype=np.int64)
    want = evaluate_batch(g, xs)
    flips = "0123456789+-"
    raw = list(text)
    for _ in range(300):
        pos = int(rng.integers(len(raw)))
        old = raw[pos]
        if old == "\n":
            continue
        raw[pos] = flips[int(rng.integers(len(flips)))]
        mutated = "".join(raw)
        raw[pos] = old
        try:
            back = parse(mutated)
        except (NetlistParseError, GraphValidationError):
            continue
        got = evaluate_batch(back, xs[: len(back.inputs)])
        if back.inputs == g.inputs and len(back.outputs) == len(g.outputs):
            # a parse that succeeds yields a validated graph; its behaviour
            # may differ (a sign flip is a different, still well-formed
            # netlist) but evaluation must be well-defined
            assert got.shape == want.shape


def test_digit_schedule_round_trip(filter_matrix):
    g = schedule_serial(build_tree(no_cse(filter_matrix), 2), 4)
    back = parse(emit(g))
    assert back.digits == 4
    assert back.digit_width == 4
    assert back.total_bits == 16


def test_name_round_trip(filter_matrix):
    g = build_tree(no_cse(filter_matrix), 2, name="conv1")
    assert parse(emit(g)).name == "conv1"


# ---------------------------------------------------------------------------
# emit against its one-format reference, the array parse against the loop

LAST_STAGE = 2**63 - 1


@st.composite
def adder_graphs(draw):
    """Valid graphs, drawn node by node: an add or a delay reads nodes of one
    stage below it, an output reads at most one node, of its own stage when
    the outputs are aligned; a bare output takes any stage up to 2^63 - 1."""
    aligned = draw(st.booleans())
    out_stage = draw(st.sampled_from([0, 1, 2**31, LAST_STAGE]))  # every output's, when aligned
    kinds, stages, start, node, sign = [], [], [0], [], []
    for i in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(KINDS))
        ops, stage = [], 0
        sources = [j for j in range(i) if stages[j] < LAST_STAGE]
        if kind in ("add", "delay") and sources:
            stage = stages[draw(st.sampled_from(sources))] + 1
            k = draw(st.integers(2, 3)) if kind == "add" else 1
            pool = [j for j in sources if stages[j] == stage - 1]
            ops = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
        elif kind == "out":
            stage = out_stage if aligned else draw(st.sampled_from([0, 3, 2**31 - 1, 2**31, LAST_STAGE]))
            pool = [j for j in range(i) if stages[j] == stage or not aligned]
            ops = draw(st.lists(st.sampled_from(pool), max_size=1)) if pool else []
        else:
            kind = "in"
        kinds.append(KINDS.index(kind))
        stages.append(stage)
        node += ops
        sign += draw(st.lists(st.sampled_from([1, -1]), min_size=len(ops), max_size=len(ops)))
        start.append(len(node))
    digits = draw(st.sampled_from([1, 2, 16]))
    name = draw(st.just("") | st.text(st.characters(min_codepoint=ord("!"), max_codepoint=ord("~")), min_size=1))
    return AdderGraph(
        kinds, stages, start, node, sign, digits=digits, total_bits=digits * draw(st.sampled_from([1, 16, 128])),
        outputs_aligned=aligned, name=name,
    )


def _bare_outputs(stages, aligned):
    return AdderGraph([OUT] * len(stages), stages, [0] * (len(stages) + 1), [], [], outputs_aligned=aligned)


# three inputs and one 3-operand add per mask of negative operands
SIGN_MASKS = AdderGraph(
    [IN] * 3 + [ADD] * 8, [0] * 3 + [1] * 8, [0, 0, 0] + list(range(0, 25, 3)), [0, 1, 2] * 8,
    [-1 if mask >> k & 1 else 1 for mask in range(8) for k in range(3)],
)


@settings(max_examples=300, deadline=None)
@given(g=adder_graphs())
@example(g=AdderGraph())
@example(g=_bare_outputs([5], True))
@example(g=_bare_outputs([5, 0], False))
@example(g=SIGN_MASKS)
@example(g=_bare_outputs([2**31 - 1, 2**31], False))
@example(g=AdderGraph([OUT, DELAY, OUT], [2**31, 2**31 + 1, LAST_STAGE], [0, 0, 1, 2], [0, 1], [-1, 1],
                      outputs_aligned=False))
@example(g=AdderGraph([IN, DELAY], [0, 1], [0, 0, 1], [0], [1], digits=16))  # digit width 1
@example(g=AdderGraph([IN], [0], [0, 0], [], [], total_bits=128))  # digit width 128
@example(g=AdderGraph([IN] * 1000, [0] * 1000, [0] * 1001, [], [], name="conv1"))
def test_emit_equals_the_reference_and_parses_back_on_arrays(g):
    text = emit(g)
    assert text == netlist_ref.emit(g)
    with mock.patch.object(netlist, "_read_lines", side_effect=AssertionError("the per-line loop ran")):
        assert parse(text) == g


def _outcome(text):
    """The graph ``parse`` gives, or its error message."""
    try:
        return parse(text)
    except NetlistParseError as e:
        return str(e)


def _assert_paths_agree(text):
    with mock.patch.object(netlist, "_scan", return_value=None):
        by_line = _outcome(text)
    assert _outcome(text) == by_line


@settings(max_examples=300, deadline=None)
@given(text=ngl_texts() | st.text())
def test_array_parse_agrees_with_the_line_loop(text):
    _assert_paths_agree(text)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda t: t.replace("ngl", "xgl", 1),
        lambda t: t.replace("node 0 in 0 16", "node 0 frob 0 16"),
        lambda t: t.replace("nodes 16", "nodes 9"),
        lambda t: t + "node 99 add 1 16 +0 +1\n",
        lambda t: t.replace("aligned 0", "aligned 7"),
        lambda t: t.replace("total 16", "total 12", 1),
        lambda t: t.replace("node 0 in 0 16", "node 0 in o 16"),
        lambda t: t.replace("node 1 in", "node 1 i"),
        lambda t: t.replace("node 2 ", "edon 2 "),
        lambda t: t.replace("nodes 16", "nodes 17") + "node 16 in 0\n",
        lambda t: re.sub(r"[+-][0-9]+\n", "+\n", t, count=1),
        lambda t: t.replace(" +", " +1000000000000000000", 1),  # 10^19 + its operand
        lambda t: t.replace("node 1 ", "node\x011 "),
        lambda t: t.replace("aligned 0\n", "aligned 0\rnode\n"),
    ],
)
def test_array_parse_agrees_with_the_line_loop_on_structured_mutations(filter_matrix, mutate):
    _assert_paths_agree(mutate(emit(build_tree(no_cse(filter_matrix), 2, align_outputs=False))))


@pytest.mark.parametrize("operands", ["+0 -2999", "10 +-1", "+0 +3000", "+0 -0", "+12 -2_0", "+18446744073709551616 -0"])
def test_array_parse_agrees_with_the_line_loop_on_a_wide_add(operands):
    # a misplaced sign reads as a digit worth 2,510 or more, and 2^64 wraps
    # to 0 in uint64; 3,000 inputs leave room for such a reference
    lines = [f"node {i} in 0 16" for i in range(3000)] + [f"node 3000 add 1 16 {operands}"]
    _assert_paths_agree("ngl inputs 3000 outputs 0 nodes 3001 digits 1 total 16 aligned 1\n" + "\n".join(lines))


@pytest.mark.parametrize(
    "respace",
    [
        lambda t: t.replace(" ", "\t").replace("\n", "\r\n"),
        lambda t: t.replace("\n", "\n \x1f\n  "),
        lambda t: t.replace("\n", "\x0b").replace("\x0b", "\n", 1),
        lambda t: t.replace("\n", "\x1c\x1d\x1e\x0c\r").replace("\x1c\x1d\x1e\x0c\r", "\n", 1),
        lambda t: t.replace("node 3 ", "node 003 ").replace(" 16", " 016").replace(" +", " +0000000000000000"),
    ],
    ids=["tabs-crlf", "blank-lines", "vertical-tabs", "other-breaks", "leading-zeros"],
)
def test_array_parse_reads_ascii_whitespace_and_leading_zeros(filter_matrix, respace):
    g = build_tree(no_cse(filter_matrix), 2, align_outputs=False)
    text = respace(emit(g))
    assert text != emit(g)
    with mock.patch.object(netlist, "_read_lines", side_effect=AssertionError("the per-line loop ran")):
        assert parse(text) == g


def test_array_parse_agrees_with_the_line_loop_on_fuzzed_mutations(m7x6, rng):
    raw = list(emit(build_tree(td_cse(m7x6), 2)))
    for _ in range(300):
        pos = int(rng.integers(len(raw)))
        if raw[pos] != "\n":
            old, raw[pos] = raw[pos], "0123456789+-"[int(rng.integers(12))]
            _assert_paths_agree("".join(raw))
            raw[pos] = old


@pytest.mark.parametrize("name", ["\u00e9", "a\x01b", "\x7f"])
def test_parse_refuses_a_name_that_is_not_a_word(name):
    text = f"ngl inputs 0 outputs 0 nodes 0 digits 1 total 16 aligned 1 name {name}\n"
    with pytest.raises(NetlistParseError, match="is not one or more ASCII characters from '!' to '~'$"):
        parse(text)

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternroll import (
    AdderGraph,
    TernaryMatrix,
    bu_cse,
    build_tree,
    cost,
    evaluate_batch,
    no_cse,
    schedule_serial,
    td_cse,
)
from ternroll.cse import parse_cse
from ternroll.treegen import (
    ADD,
    IN,
    KINDS,
    OUT,
    GraphValidationError,
    area_slice_estimate,
)

from . import cse_rows, graph_ref, tree_ref
from .basis import evaluate
from .serial_ref import evaluate_serial, serial_sum
from .test_netlist_golden import CORPUS
from .trits import random_ternary


def test_filter_tree_structure(filter_matrix):
    g = build_tree(no_cse(filter_matrix), 2)
    c = cost(g)
    assert c.adders == 4
    assert c.registers == 2
    assert c.depth == 3
    assert evaluate(g, range(1, 10)) == [5]  # -1 + 3 + 5 + 6 - 8


def test_single_term_rows_pass_through():
    m = TernaryMatrix(np.array([[0, 1, 0], [0, 0, -1]], dtype=np.int8))
    g = build_tree(no_cse(m), 2)
    c = cost(g)
    assert c.adders == 0
    assert c.registers == 0
    assert evaluate(g, [7, 8, 9]) == [8, -9]


def test_two_output_shared_subexpression_as_drawn(two_output_matrix):
    # z0 = -a+c+e+f-h and z1 = c+d-e-f share e+f; without output padding the
    # graph carries 6 add/sub nodes and 2 pure registers
    r = td_cse(two_output_matrix)
    g = build_tree(r, 2, align_outputs=False)
    c = cost(g)
    assert (c.adders, c.registers) == (6, 2)
    assert evaluate(g, range(1, 10)) == [5, -4]
    # with aligned outputs the early z1 needs one more register
    ca = cost(build_tree(r, 2, align_outputs=True))
    assert (ca.adders, ca.registers) == (6, 3)


def test_alignment_invariant_and_validator(two_output_matrix):
    g = build_tree(td_cse(two_output_matrix), 2, align_outputs=True)
    assert len(set(g.stage[list(g.outputs)].tolist())) == 1
    start = g.operand_start
    for nid in np.flatnonzero(g.kind == ADD):
        assert (g.stage[g.operand_node[start[nid] : start[nid + 1]]] == g.stage[nid] - 1).all()
    # a graph with a hand-corrupted stage cannot be made
    first_add = int(np.flatnonzero(g.kind == ADD)[0])
    stage = g.stage.copy()
    stage[first_add] += 1
    with pytest.raises(GraphValidationError, match=f"add node {first_add} at stage"):
        AdderGraph(g.kind, stage, g.operand_start, g.operand_node, g.operand_sign)


def test_arity3_strictly_fewer_adders(rng):
    m = random_ternary(64, 27, 0.25, rng)
    r = no_cse(m)
    g2 = build_tree(r, 2)
    g3 = build_tree(r, 3)
    assert cost(g3).adders < cost(g2).adders
    xs = rng.integers(-(2**15), 2**15, size=(27, 64), dtype=np.int64)
    want = m.entries.astype(np.int64) @ xs
    assert np.array_equal(evaluate_batch(g2, xs), want)
    assert np.array_equal(evaluate_batch(g3, xs), want)


def test_arity_validation(m7x6):
    with pytest.raises(ValueError):
        build_tree(no_cse(m7x6), 4)


def test_empty_graph_cost():
    c = cost(AdderGraph())
    assert (c.adders, c.registers, c.adds_plus_regs, c.depth) == (0, 0, 0, 0)


def test_m7x6_evaluate_ones(m7x6):
    for fn in (no_cse, td_cse, bu_cse):
        g = build_tree(fn(m7x6), 2)
        assert evaluate(g, [1] * 6) == [2, 4, 3, 2, 3, 2, 3]


def test_all_zero_row_outputs_zero():
    m = TernaryMatrix(np.array([[0, 0], [1, -1]], dtype=np.int8))
    g = build_tree(no_cse(m), 2)
    assert evaluate(g, [5, 3]) == [0, 2]


def test_depth_bound(rng):
    for _ in range(5):
        m = random_ternary(6, 20, 0.3, rng)
        for fn in (no_cse, td_cse, bu_cse):
            r = fn(m)
            for arity in (2, 3):
                g = build_tree(r, arity)
                defs, outs = cse_rows.rows(r)
                max_terms = max([len(t) for t in outs] + [len(t) for _, t in defs])
                lower = int(np.ceil(np.log(max(max_terms, 2)) / np.log(arity)))
                chain = len(defs)
                assert lower <= cost(g).depth <= lower + chain + max_terms


def test_cost_determinism(rng):
    m = random_ternary(16, 32, 0.6, rng)
    a = build_tree(td_cse(m), 2)
    b = build_tree(td_cse(m), 2)
    assert a == b
    assert cost(a) == cost(b)


def test_shared_definition_fanout_built_once(two_output_matrix):
    r = td_cse(two_output_matrix)
    g = build_tree(r, 2, align_outputs=False)
    # e + f is one add node consumed by both output trees
    start, node = g.operand_start, g.operand_node
    ef_adds = [
        nid
        for nid in np.flatnonzero(g.kind == ADD)
        if set(node[start[nid] : start[nid + 1]].tolist()) == {g.inputs[4], g.inputs[5]}
    ]
    assert len(ef_adds) == 1
    assert np.count_nonzero(node == ef_adds[0]) == 2


@pytest.mark.parametrize(
    "defs, out, message",
    [
        ([(2, ((2, 1),))], ((0, 1),), "def x2: reads x2, which is not an input or an earlier definition"),
        ([(2, ((3, 1),)), (3, ((0, 1), (1, 1)))], ((2, 1),), "def x2: reads x3, which is not"),
        ([(2, ((0, 1), (1, 1)))], ((4, 1),), "out 0: reads x4, which is not"),
        ([(2, ((0, 1),)), (2, ((1, 1),))], ((2, 1),), "def x2: the id is defined twice"),
        ([(1, ((0, 1),))], ((1, 1),), "def x1: the id is an input"),
    ],
    ids=["reads-itself", "reads-a-later-one", "undefined", "one-id-twice", "an-input-id"],
)
def test_build_tree_rejects_a_malformed_result(defs, out, message):
    # refused when made, so no malformed result reaches build_tree
    with pytest.raises(ValueError, match=message):
        cse_rows.result(2, defs, [out])


def test_build_tree_peak_memory():
    # the graph itself is 1.27 MiB; build_tree's temporaries must stay small
    r = no_cse(CORPUS["64x2304_z75"]())
    build_tree(r)  # leave first-call imports out of the measurement
    tracemalloc.start()
    try:
        build_tree(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_graph_takes_its_own_read_only_arrays_and_copies_others(filter_matrix):
    g = build_tree(no_cse(filter_matrix), 2)
    g4 = schedule_serial(g, 4)
    for field in ("kind", "stage", "operand_start", "operand_node", "operand_sign"):
        assert getattr(g4, field) is getattr(g, field)
    kind = g.kind.copy()  # writable
    h = AdderGraph(kind, g.stage, g.operand_start, g.operand_node, g.operand_sign)
    kind[0] = 3
    assert h.kind[0] == g.kind[0] and not h.kind.flags.writeable
    assert h == g


# ---------------------------------------------------------------------------
# Serial scheduling


def test_schedule_parallel():
    g = schedule_serial(AdderGraph(), 1)
    assert g.digits == 1
    assert g.digit_width == 16


def test_schedule_word_serial(filter_matrix):
    g = build_tree(no_cse(filter_matrix), 2)
    g4 = schedule_serial(g, 4)
    assert (g4.digits, g4.digit_width) == (4, 4)
    assert area_slice_estimate(g4) == pytest.approx(cost(g).adders * 2 / 4)
    g16 = schedule_serial(g, 16)
    assert (g16.digits, g16.digit_width) == (16, 1)
    assert area_slice_estimate(g16) == pytest.approx(cost(g).adders * 2 / 16)
    # intervals beyond the word width stay bit-serial
    g64 = schedule_serial(g, 64)
    assert (g64.digits, g64.digit_width) == (16, 1)


def test_schedule_illegal_interval(filter_matrix):
    g = build_tree(no_cse(filter_matrix), 2)
    with pytest.raises(ValueError):
        schedule_serial(g, 3)
    with pytest.raises(ValueError):
        schedule_serial(g, 0)


def test_serial_sum_examples():
    assert serial_sum([(5, 1), (-3, 1)], 16) == 2
    assert serial_sum([(5, 1), (3, -1)], 4) == 2
    assert serial_sum([(5, 1), (-3, -1)], 1) == 8


def test_serial_sum_matches_parallel_mod_2_16(rng):
    for digits in (4, 16):
        a = rng.integers(-(2**15), 2**15, size=10_000)
        b = rng.integers(-(2**15), 2**15, size=10_000)
        sub = rng.integers(0, 2, size=10_000)
        for x, y, s in zip(a, b, sub):
            sign = -1 if s else 1
            got = serial_sum([(int(x), 1), (int(y), sign)], digits)
            want = (int(x) + sign * int(y)) & 0xFFFF
            if want >= 1 << 15:
                want -= 1 << 16
            assert got == want


def test_serial_evaluation_matches_parallel_mod_2_16(m7x6, rng):
    r = td_cse(m7x6)
    g = schedule_serial(build_tree(r, 2), 16)
    for _ in range(50):
        x = rng.integers(-(2**15), 2**15, size=6)
        par = evaluate(g, x)
        ser = evaluate_serial(g, x)
        for p, s in zip(par, ser):
            assert (p - s) % (1 << 16) == 0


def test_serial_three_input_adders(rng):
    m = random_ternary(4, 9, 0.2, rng)
    g = schedule_serial(build_tree(no_cse(m), 3), 4)
    for _ in range(20):
        x = rng.integers(-(2**12), 2**12, size=9)
        par = evaluate(g, x)
        ser = evaluate_serial(g, x)
        for p, s in zip(par, ser):
            assert (p - s) % (1 << 16) == 0


def test_evaluate_input_length_checked(filter_matrix):
    g = build_tree(no_cse(filter_matrix), 2)
    with pytest.raises(ValueError):
        evaluate(g, [1, 2, 3])


def test_no_intermediate_overflow_wide_row():
    m = TernaryMatrix(np.ones((1, 2304), dtype=np.int8))
    g = build_tree(no_cse(m), 2)
    assert evaluate(g, [32767] * 2304) == [32767 * 2304]


# ---------------------------------------------------------------------------
# Validation against the independent per-node reference


@st.composite
def mutated_graphs(draw):
    """A small valid graph as plain lists, with one to three mutations."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    entries = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=rows * cols, max_size=rows * cols))
    m = TernaryMatrix(np.array(entries, dtype=np.int8).reshape(rows, cols))
    method = draw(st.sampled_from([no_cse, td_cse, bu_cse]))
    aligned = draw(st.booleans())
    g = build_tree(method(m), draw(st.sampled_from([2, 3])), align_outputs=aligned)
    kinds = [KINDS[k] for k in g.kind.tolist()]
    stages = g.stage.tolist()
    start = g.operand_start.tolist()
    node, sign = g.operand_node.tolist(), g.operand_sign.tolist()
    operands = [list(zip(node[a:b], sign[a:b])) for a, b in zip(start, start[1:])]
    n = len(kinds)
    nid = draw(st.integers(0, n - 1))
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):  # else mutate the same node again
            nid = draw(st.integers(0, n - 1))
        ops = operands[nid]
        what = draw(st.sampled_from(["stage", "retarget", "sign", "add", "drop", "kind"]))
        if what == "stage":
            stages[nid] += draw(st.sampled_from([-1, 1]))
        elif what == "kind":
            kinds[nid] = draw(st.sampled_from(KINDS))
        elif what == "add":
            op = (draw(st.integers(-1, n)), draw(st.sampled_from([-1, 1, 0, 2])))
            ops.insert(draw(st.integers(0, len(ops))), op)
        elif ops:
            j = draw(st.integers(0, len(ops) - 1))
            if what == "retarget":
                ops[j] = (draw(st.integers(-1, n)), ops[j][1])
            elif what == "sign":
                ops[j] = (ops[j][0], draw(st.sampled_from([0, 2])))
            else:
                del ops[j]
    return kinds, stages, operands, aligned


@pytest.mark.parametrize(
    "arrays",
    [
        ([0], [0], [0, 5], [], []),
        ([0], [0, 1], [0, 0], [], []),
        ([0, 1], [0, 1], [0, 0, 2], [0, 0], [1]),
        (0, [0], [0, 0], [], []),
    ],
    ids=["operands-past-the-end", "stage-per-node", "sign-per-operand", "scalar-kind"],
)
def test_validate_graph_rejects_inconsistent_arrays(arrays):
    with pytest.raises(GraphValidationError, match="node arrays have inconsistent lengths"):
        AdderGraph(*arrays)


@pytest.mark.parametrize("digits", [0, -4, 3])
def test_validate_graph_rejects_an_illegal_digit_count(digits):
    with pytest.raises(GraphValidationError, match=f"^{digits} digits do not divide 16 bits$"):
        AdderGraph(digits=digits)


@pytest.mark.parametrize(
    "make, message",
    [
        # node 1 adds itself to node 0: a cycle the proof would never finish walking
        (lambda: AdderGraph([IN, ADD, OUT], [0, 1, 2], [0, 0, 2, 3], [0, 1, 1], [1, 1, 1]),
         "node 1: operand 1 is not an earlier node"),
        (lambda: AdderGraph([IN, ADD, IN], [0, 1, 0], [0, 0, 2, 2], [0, 2], [1, 1]),
         "node 1: operand 2 is not an earlier node"),
        # the graph is refused before digit_width can divide by 0
        (lambda: AdderGraph(digits=0).digit_width, "0 digits do not divide 16 bits"),
    ],
    ids=["self-reading", "forward-reference", "zero-digits"],
)
def test_an_invalid_graph_cannot_be_made(make, message):
    with pytest.raises(GraphValidationError, match=f"^{message}$"):
        make()


@settings(max_examples=300, deadline=None)
@given(mutated_graphs())
def test_validate_graph_agrees_with_the_reference(case):
    kinds, stages, operands, aligned = case
    arrays = (
        [KINDS.index(k) for k in kinds],
        stages,
        np.cumsum([0] + [len(ops) for ops in operands]),
        [op for ops in operands for op, _ in ops],
        [sign for ops in operands for _, sign in ops],
    )
    want = graph_ref.validation_error(kinds, stages, operands, aligned)
    if want is None:
        AdderGraph(*arrays, outputs_aligned=aligned)
    else:
        with pytest.raises(GraphValidationError) as e:
            AdderGraph(*arrays, outputs_aligned=aligned)
        assert str(e.value) == want


# ---------------------------------------------------------------------------
# Construction against the independent per-node reference


@st.composite
def cse_texts(draw):
    """A valid .cse text and its input count. Definitions read inputs and
    earlier definitions, may skip ids and may be one term, negated or not;
    outputs may be empty."""
    n_in = draw(st.integers(1, 6))
    names, lines = list(range(n_in)), []

    def terms(min_size):
        chosen = draw(st.lists(st.sampled_from(names), unique=True, min_size=min_size, max_size=7))
        return " ".join(f"{draw(st.sampled_from('+-'))}x{v}" for v in chosen)

    for _ in range(draw(st.integers(0, 8))):
        body = terms(1)
        names.append(max(names[-1] + 1, n_in) + draw(st.integers(0, 2)))  # ids may skip
        lines.append(f"def x{names[-1]} = {body}")
    for r in range(draw(st.integers(1, 5))):
        lines.append(f"out {r} = {terms(0)}".rstrip())
    return "\n".join(lines) + "\n", n_in


@st.composite
def cse_results(draw):
    if draw(st.booleans()):
        text, n_in = draw(cse_texts())
        return parse_cse(text, n_in)
    rows, cols = draw(st.integers(1, 20)), draw(st.integers(1, 40))
    zeros, seed = draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2**32 - 1))
    m = random_ternary(rows, cols, zeros, np.random.default_rng(seed))
    return draw(st.sampled_from([no_cse, td_cse, bu_cse]))(m)


@settings(max_examples=300, deadline=None)
@given(cse_results(), st.sampled_from([2, 3]), st.booleans())
def test_build_tree_equals_the_reference(result, arity, aligned):
    g = build_tree(result, arity, align_outputs=aligned)
    start, node, sign = g.operand_start.tolist(), g.operand_node.tolist(), g.operand_sign.tolist()
    got = (
        [KINDS[k] for k in g.kind.tolist()],
        g.stage.tolist(),
        [list(zip(node[a:b], sign[a:b])) for a, b in zip(start, start[1:])],
    )
    assert got == tree_ref.build_tree(result.n_inputs, *cse_rows.rows(result), arity, aligned)

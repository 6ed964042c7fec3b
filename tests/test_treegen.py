import numpy as np
import pytest

from ternroll import (
    AdderGraph,
    TernaryMatrix,
    bu_cse,
    build_tree,
    cost,
    evaluate,
    evaluate_batch,
    evaluate_serial,
    no_cse,
    schedule_serial,
    serial_sum,
    td_cse,
    validate_graph,
)
from ternroll.matrices import random_ternary
from ternroll.treegen import (
    ADD,
    DELAY,
    GraphValidationError,
    Node,
    area_slice_estimate,
)


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
    stages = {g.node(o).stage for o in g.outputs}
    assert len(stages) == 1
    for n in g.nodes:
        if n.kind == ADD:
            assert all(g.node(op).stage == n.stage - 1 for op, _ in n.operands)
    # a hand-corrupted stage is rejected
    bad_nodes = list(g.nodes)
    for k, n in enumerate(bad_nodes):
        if n.kind == ADD:
            bad_nodes[k] = Node(n.id, n.kind, n.stage + 1, n.operands)
            break
    bad = AdderGraph(tuple(bad_nodes), g.inputs, g.outputs)
    with pytest.raises(GraphValidationError):
        validate_graph(bad)


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
    g = AdderGraph((), (), ())
    assert cost(g) == (0, 0, 0, 0) or (
        cost(g).adders == 0
        and cost(g).registers == 0
        and cost(g).adds_plus_regs == 0
        and cost(g).depth == 0
    )


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
                max_terms = max(
                    [len(o.terms) for o in r.outputs] + [len(d.terms) for d in r.definitions]
                )
                lower = int(np.ceil(np.log(max(max_terms, 2)) / np.log(arity)))
                chain = len(r.definitions)
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
    ef_adds = [
        n
        for n in g.nodes
        if n.kind == ADD
        and {op for op, _ in n.operands} == {g.inputs[4], g.inputs[5]}
    ]
    assert len(ef_adds) == 1
    consumers = [
        n for n in g.nodes if any(op == ef_adds[0].id for op, _ in n.operands)
    ]
    assert len(consumers) == 2


# ---------------------------------------------------------------------------
# Serial scheduling


def test_schedule_parallel():
    g = schedule_serial(AdderGraph((), (), ()), 1)
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

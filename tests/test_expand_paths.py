"""The path-expansion proof against standard-basis evaluation.

``find_counterexample`` must give the verdict, and the first differing
column, that evaluating on every basis vector gives: for well-formed and
mutated CSE results and adder graphs, for graphs whose paths cancel, and
for sums that wrap int64.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternroll import (
    AdderGraph,
    CseResult,
    TernaryMatrix,
    bu_cse,
    build_tree,
    expand_paths,
    find_counterexample,
    no_cse,
    td_cse,
)
from ternroll.treegen import ADD, IN, OUT

from . import cse_rows
from .basis import dense, first_difference, on_basis
from .trits import random_ternary

METHODS = {"td": td_cse, "bu": bu_cse, "none": no_cse}


def _column(e) -> int | None:
    return None if e is None else int(e.argmax())


def _agrees_with_the_basis(m: TernaryMatrix, x) -> None:
    basis = on_basis(x)
    assert np.array_equal(dense(x), basis)
    assert _column(find_counterexample(m, x)) == first_difference(basis, m.entries)


def _mutated_result(r: CseResult, draw) -> CseResult:
    """``r`` with one term's sign flipped or its variable replaced by
    another the row may read, keeping the result well formed."""
    defs, outs = cse_rows.rows(r)
    rows = [terms for _, terms in defs] + outs
    if not any(rows):
        return r
    k = draw(st.sampled_from([i for i, terms in enumerate(rows) if terms]))
    terms = list(rows[k])
    t = draw(st.integers(0, len(terms) - 1))
    var, sign = terms[t]
    readable = list(range(r.n_inputs)) + [i for i, _ in defs[: min(k, len(defs))]]
    free = sorted(set(readable) - {v for v, _ in terms})
    if free and draw(st.booleans()):
        terms[t] = (draw(st.sampled_from(free)), sign)
    else:
        terms[t] = (var, -sign)
    rows[k] = tuple(sorted(terms))
    return cse_rows.result(r.n_inputs, [(i, rows[j]) for j, (i, _) in enumerate(defs)], rows[len(defs) :])


def _mutated_graph(g: AdderGraph, draw) -> AdderGraph:
    """``g`` with one operand's sign flipped, or pointed at another earlier
    node, or at a node the same owner already reads (so paths may cancel)."""
    node, sign = g.operand_node.copy(), g.operand_sign.copy()
    owner = np.repeat(np.arange(len(g.kind)), np.diff(g.operand_start))
    j = draw(st.integers(0, len(node) - 1))
    how = draw(st.sampled_from(["sign", "node", "duplicate"]))
    if how == "sign":
        sign[j] *= -1
    elif how == "node":
        node[j] = draw(st.integers(0, owner[j] - 1))
    else:
        lo, hi = g.operand_start[owner[j] : owner[j] + 2]
        node[j] = node[draw(st.integers(lo, hi - 1))]
        sign[j] = draw(st.sampled_from([-1, 1]))
    return dataclasses.replace(g, operand_node=node, operand_sign=sign)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 8),
    zeros=st.sampled_from([0.0, 0.3, 0.6]),
    seed=st.integers(0, 2**32 - 1),
    method=st.sampled_from(sorted(METHODS)),
    arity=st.sampled_from([2, 3]),
    mutate=st.sampled_from(["none", "result", "graph"]),
    data=st.data(),
)
def test_verdict_equals_the_basis_evaluation(rows, cols, zeros, seed, method, arity, mutate, data):
    m = random_ternary(rows, cols, zeros, np.random.default_rng(seed))
    r = METHODS[method](m)
    if mutate == "result":
        r = _mutated_result(r, data.draw)
    g = build_tree(r, arity)
    if mutate == "graph" and len(g.operand_node):
        g = _mutated_graph(g, data.draw)
    _agrees_with_the_basis(m, r)
    _agrees_with_the_basis(m, g)
    if mutate == "none":
        assert find_counterexample(m, r) is None and find_counterexample(m, g) is None


def _graph(nodes) -> AdderGraph:
    """A graph from (kind, stage, operands) triples, not validated."""
    kind, stage, ops = zip(*nodes)
    start = np.cumsum([0] + [len(o) for o in ops])
    pairs = [p for o in ops for p in o]
    return AdderGraph(kind, stage, start, [n for n, _ in pairs], [s for _, s in pairs])


def test_cancelling_duplicate_operands():
    # out 0 = (x0 + x1) - (x1 + x0) + (x1 - x1); out 1 = (x0 + x1) + (x0 + x1)
    g = _graph([
        (IN, 0, []), (IN, 0, []),
        (ADD, 1, [(0, 1), (1, 1)]), (ADD, 1, [(1, 1), (0, 1)]), (ADD, 1, [(1, 1), (1, -1)]),
        (ADD, 2, [(2, 1), (3, -1)]), (ADD, 2, [(2, 1), (2, 1)]),
        (ADD, 3, [(5, 1), (4, 1)]),
        (OUT, 3, [(7, 1)]), (OUT, 3, [(6, 1)]),
    ])
    assert [a.tolist() for a in g.expansion()] == [[1, 1], [0, 1], [2, 2]]
    _agrees_with_the_basis(TernaryMatrix([[0, 0], [1, 1]]), g)
    _agrees_with_the_basis(TernaryMatrix([[0, 0], [0, 1]]), g)


def _doubling_graph(k: int) -> AdderGraph:
    """out = 2^k x0, each add summing the one below it twice."""
    adds = [(ADD, s, [(s - 1, 1), (s - 1, 1)]) for s in range(1, k + 1)]
    return _graph([(IN, 0, []), *adds, (OUT, k, [(k, 1)])])


def _doubling_result(k: int) -> CseResult:
    """out = 2^k x0 as two equal definitions per level, each the sum of the two below."""
    defs = [(1, ((0, 1),)), (2, ((0, 1),))]
    for level in range(1, k + 1):
        below = ((2 * level - 1, 1), (2 * level, 1))
        defs += [(2 * level + 1, below), (2 * level + 2, below)]
    return cse_rows.result(1, defs, [((2 * k + 1, 1),)])


@pytest.mark.parametrize("build", [_doubling_graph, _doubling_result], ids=["graph", "result"])
@pytest.mark.parametrize("k, coefficient", [(3, 8), (63, -(2**63)), (70, 0)])
def test_a_doubling_chain_wraps_as_int64_does(build, k, coefficient):
    x = build(k)
    assert dense(x).tolist() == on_basis(x).tolist() == [[coefficient]]
    for entry in (0, 1):
        _agrees_with_the_basis(TernaryMatrix([[entry]]), x)


def test_expand_paths_on_arrays():
    # node 2 = x0 - x1, node 3 = node 2 + x1, node 4 = -node 2; inputs are nodes 0 and 1
    start, node, sign = np.array([0, 0, 0, 2, 4, 5]), np.array([0, 1, 2, 1, 2]), np.array([1, -1, 1, 1, -1])
    rows, cols, coef = expand_paths(start, node, sign, [3, 4, 2], [True, True, False, False, False])
    triples = list(zip(rows.tolist(), cols.tolist(), coef.tolist()))
    assert triples == [(0, 0, 1), (1, 0, -1), (1, 1, 1), (2, 0, 1), (2, 1, -1)]


def test_a_missing_output_fails_on_the_shape(m7x6):
    g = build_tree(td_cse(m7x6))
    with pytest.raises(ValueError, match=r"result is 7x6 \(outputs x inputs\), matrix is 8x6"):
        find_counterexample(TernaryMatrix(np.vstack([m7x6.entries, np.zeros((1, 6), np.int8)])), g)

"""Pipelined adder DAG construction, cost model and serial-adder scheduling.

Every expression is packed into a balanced tree of 2- or 3-input add nodes.
Terms are combined left-to-right in canonical order within each ready stage;
when a group mixes stages, the earlier members pass through delay registers
so that all operands of an add sit exactly one stage below it. Shared
definitions are built once and fanned out; delay chains are shared between
consumers. Subtraction is an add with a negative operand sign, never a
distinct node kind.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields, replace

import numpy as np

from .cse import CseResult

IN, ADD, DELAY, OUT = range(4)  # node kind codes, indices into KINDS
KINDS = ("in", "add", "delay", "out")
_ARRAYS = dict(kind=np.int8, stage=np.int64, operand_start=np.int64, operand_node=np.int64, operand_sign=np.int8)


class GraphValidationError(RuntimeError):
    """An adder graph violates its structural invariants."""


@dataclass(frozen=True, eq=False)
class AdderGraph:
    """Acyclic add/delay pipeline with stage-aligned operands.

    Node ``i`` has kind code ``kind[i]`` (an index into ``KINDS``), pipeline
    stage ``stage[i]`` and the signed operands ``operand_node[j]``,
    ``operand_sign[j]`` for ``j`` in ``operand_start[i]:operand_start[i + 1]``.
    The arrays are read-only. The inputs and outputs are the ``IN`` and
    ``OUT`` nodes in id order. ``digits`` is the serial schedule: 1 means
    fully parallel words, D > 1 means each sample is processed as D digits of
    ``digit_width`` bits. Evaluation semantics are independent of the schedule.
    """

    kind: np.ndarray = ()
    stage: np.ndarray = ()
    operand_start: np.ndarray = (0,)
    operand_node: np.ndarray = ()
    operand_sign: np.ndarray = ()
    digits: int = 1
    total_bits: int = 16
    outputs_aligned: bool = True
    name: str = ""

    def __post_init__(self) -> None:
        for field, dtype in _ARRAYS.items():
            a = np.array(getattr(self, field), dtype=dtype)
            a.flags.writeable = False
            object.__setattr__(self, field, a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AdderGraph):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @property
    def digit_width(self) -> int:
        return self.total_bits // self.digits

    @property
    def nodes(self) -> range:
        """The node ids; a node's fields are read from the arrays."""
        return range(len(self.kind))

    @property
    def inputs(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.kind == IN).tolist())

    @property
    def outputs(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.kind == OUT).tolist())


@dataclass(frozen=True)
class CostReport:
    adders: int
    registers: int
    adds_plus_regs: int
    depth: int


class _Builder:
    """Appends nodes to flat arrays; shares one delay chain per source node."""

    def __init__(self) -> None:
        self.kind, self.stage = array("b"), array("q")
        self.start, self.node, self.sign = array("q", [0]), array("q"), array("b")
        self._delay_of: dict[int, int] = {}  # source node id -> its delay node id

    def new(self, kind: int, stage: int, nodes=(), signs=()) -> int:
        self.kind.append(kind)
        self.stage.append(stage)
        self.node.extend(nodes)
        self.sign.extend(signs)
        self.start.append(len(self.node))
        return len(self.kind) - 1

    def delayed(self, nid: int, target_stage: int) -> int:
        while self.stage[nid] < target_stage:
            got = self._delay_of.get(nid)
            if got is None:
                got = self._delay_of[nid] = self.new(DELAY, self.stage[nid] + 1, (nid,), (1,))
            nid = got
        return nid


def _pack(b: _Builder, nids: list[int], signs: list[int], arity: int) -> tuple[int, int]:
    """Reduce signed nodes to a single root; returns (node, sign).

    Earliest-ready values are combined first (canonical term order breaks
    stage ties), so values that become ready together merge without padding
    and a deep shared definition joins the tree near its own stage instead of
    dragging a delay chain behind every shallow term. Each add is at least as
    deep as the last, so the adds form a second stage-ordered queue beside
    the terms; at equal stages a term is taken first.
    """
    stage = b.stage
    order = sorted(range(len(nids)), key=lambda k: stage[nids[k]])  # stable
    qn, qs = [nids[k] for k in order], [signs[k] for k in order]
    n = len(qn)
    made: list[int] = []
    i = j = 0
    for left in range(n, 1, 1 - arity):
        ops, sgs = [], []
        for _ in range(arity if left >= arity else left):
            if j < len(made) and (i == n or stage[made[j]] < stage[qn[i]]):
                ops.append(made[j])
                sgs.append(1)
                j += 1
            else:
                ops.append(qn[i])
                sgs.append(qs[i])
                i += 1
        smax = stage[ops[-1]]
        for k in range(len(ops) - 1):
            if stage[ops[k]] < smax:
                ops[k] = b.delayed(ops[k], smax)
        made.append(b.new(ADD, smax + 1, ops, sgs))
    return (qn[i], qs[i]) if j == len(made) else (made[j], 1)


def build_tree(
    result: CseResult,
    arity: int = 2,
    *,
    align_outputs: bool = True,
    name: str = "",
) -> AdderGraph:
    """Pack a CSE result into a pipelined adder graph.

    Definitions are built first, in order, and fanned out to consumers.
    With ``align_outputs`` every output is padded with delay registers to the
    stage of the deepest one, so the whole vector leaves in the same cycle.
    """
    if arity not in (2, 3):
        raise ValueError(f"adder arity must be 2 or 3, got {arity}")
    b = _Builder()
    env = {i: (b.new(IN, 0), 1) for i in range(result.n_inputs)}  # variable -> (node, sign)

    def pack(terms) -> tuple[int, int]:
        return _pack(b, [env[v][0] for v, _ in terms], [s * env[v][1] for v, s in terms], arity)

    for d in result.definitions:
        assert d.id is not None
        env[d.id] = pack(d.terms)
    roots = [pack(e.terms) if e.terms else None for e in result.outputs]
    target = max((b.stage[r[0]] for r in roots if r is not None), default=0) if align_outputs else 0
    for r in roots:
        if r is None:
            b.new(OUT, target)
        else:
            nid = b.delayed(r[0], target) if align_outputs else r[0]
            b.new(OUT, b.stage[nid], (nid,), (r[1],))
    g = AdderGraph(b.kind, b.stage, b.start, b.node, b.sign,
                   outputs_aligned=align_outputs, name=name)
    validate_graph(g)
    return g


def validate_graph(g: AdderGraph) -> None:
    """Check shapes, operands, arities and stages; name the lowest bad node's first failed check."""
    kind, stage, start, node, sign = g.kind, g.stage, g.operand_start, g.operand_node, g.operand_sign
    n = len(kind)
    if (any(a.ndim != 1 for a in (kind, stage, start, node, sign)) or len(stage) != n or len(start) != n + 1
            or start[0] != 0 or (np.diff(start) < 0).any() or not len(node) == len(sign) == start[-1]):
        raise GraphValidationError("node arrays have inconsistent lengths")
    arity = np.diff(start)
    owner = np.repeat(np.arange(n), arity)
    bad_op = (node < 0) | (node >= owner) | (np.abs(sign) != 1)
    lag = stage[owner] - stage[np.where(bad_op, 0, node)]  # an operand's stage below its node's
    bad_lag = np.bincount(owner[lag != (kind[owner] != OUT)], minlength=n) > 0
    bad = (
        (np.bincount(owner[bad_op], minlength=n) > 0)
        | (kind == IN) & ((arity > 0) | (stage != 0))
        | (kind == ADD) & ((arity < 2) | (arity > 3) | bad_lag)
        | (kind == DELAY) & ((arity != 1) | bad_lag)
        | (kind == OUT) & ((arity > 1) | g.outputs_aligned & bad_lag)
        | (kind < IN) | (kind > OUT)
    )
    if bad.any():
        raise GraphValidationError(_node_error(g, int(np.argmax(bad))))
    stages = np.unique(stage[kind == OUT]).tolist()
    if g.outputs_aligned and len(stages) > 1:
        raise GraphValidationError(f"output stages differ: {stages}")
    if g.digits < 1 or g.total_bits % g.digits:
        raise GraphValidationError(f"{g.digits} digits do not divide {g.total_bits} bits")


def _node_error(g: AdderGraph, nid: int) -> str:
    """The message of the first failing check of the bad node ``nid``."""
    lo, hi = g.operand_start[nid : nid + 2].tolist()
    ops = list(zip(g.operand_node[lo:hi].tolist(), g.operand_sign[lo:hi].tolist()))
    for op, sign in ops:
        if not (0 <= op < nid):
            return f"node {nid}: operand {op} is not an earlier node"
        if sign not in (-1, 1):
            return f"node {nid}: operand sign {sign}"
    kind, stage, k = int(g.kind[nid]), int(g.stage[nid]), len(ops)
    if kind == IN:
        return f"input node {nid} must be bare at stage 0"
    if kind == ADD and 2 <= k <= 3:
        op = next(op for op, _ in ops if g.stage[op] != stage - 1)
        return f"add node {nid} at stage {stage} reads node {op} at stage {g.stage[op]}"
    if kind == ADD:
        return f"add node {nid} has arity {k}"
    if kind == DELAY:
        return f"delay node {nid} skips stages" if k == 1 else f"delay node {nid} needs exactly one operand"
    if kind == OUT:
        return f"output node {nid} is not stage-aligned" if k <= 1 else f"output node {nid} has {k} operands"
    return f"node {nid} has unknown kind {kind!r}"


def cost(g: AdderGraph) -> CostReport:
    adders = int(np.count_nonzero(g.kind == ADD))
    regs = int(np.count_nonzero(g.kind == DELAY))
    depth = int(g.stage.max(initial=0))
    return CostReport(adders, regs, adders + regs, depth)


def schedule_serial(g: AdderGraph, pixel_interval: int) -> AdderGraph:
    """Assign the digit-serial schedule matching the layer's pixel interval.

    With M cycles between samples the adders can compute one digit per cycle:
    D = min(M, total_bits) digits of total_bits/D bits each. The semantic
    value of every node is unchanged; the cycle model charges D cycles per
    sample and latency depth + D - 1, and the area estimate scales by 1/D.
    """
    if pixel_interval < 1:
        raise ValueError(f"pixel interval must be >= 1, got {pixel_interval}")
    digits = min(pixel_interval, g.total_bits)
    if g.total_bits % digits:
        raise ValueError(
            f"pixel interval {pixel_interval} gives {digits} digits, "
            f"which do not divide {g.total_bits} bits into a legal digit width"
        )
    return replace(g, digits=digits)


def area_slice_estimate(g: AdderGraph) -> float:
    """Slice-equivalent adder area: a parallel adder costs 2 slices, serial 2/D."""
    return cost(g).adders * 2.0 / g.digits


def evaluate_batch(g: AdderGraph, xs: np.ndarray) -> np.ndarray:
    """Exact evaluation of every output on a (n_inputs, batch) int matrix."""
    xs = np.asarray(xs, dtype=np.int64)
    if xs.shape[0] != len(g.inputs):
        raise ValueError(f"expected {len(g.inputs)} inputs, got {xs.shape[0]}")
    vals = np.zeros((len(g.kind), xs.shape[1]), dtype=np.int64)
    vals[list(g.inputs)] = xs
    start, node, sign = g.operand_start.tolist(), g.operand_node.tolist(), g.operand_sign.tolist()
    for nid in g.nodes:  # an input has no operands
        acc = vals[nid]
        for j in range(start[nid], start[nid + 1]):
            if sign[j] == 1:
                acc += vals[node[j]]
            else:
                acc -= vals[node[j]]
    return vals[list(g.outputs)]


def evaluate(g: AdderGraph, inputs) -> list[int]:
    """Exact signed evaluation on one input vector, in int64: wide enough that
    no intermediate overflows for 16-bit inputs and thousands of terms."""
    xs = np.asarray(list(inputs), dtype=np.int64).reshape(-1, 1)
    return [int(v) for v in evaluate_batch(g, xs)[:, 0]]


def serial_sum(addends: list[tuple[int, int]], digits: int, total_bits: int = 16) -> int:
    """Digit-serial signed sum with carry state, as the serial adder computes it.

    Negative-sign operands are fed in ones-complement with the carry register
    preloaded (the subtract carry-in); the carry is an integer so 3-input
    adders work the same way. The result is the two's-complement value modulo
    2**total_bits.
    """
    if total_bits % digits:
        raise ValueError(f"{digits} digits do not divide {total_bits} bits")
    width = total_bits // digits
    mask_digit = (1 << width) - 1
    mask_total = (1 << total_bits) - 1
    raws = []
    carry = 0
    for val, sign in addends:
        u = val & mask_total
        if sign == 1:
            raws.append(u)
        else:
            raws.append(u ^ mask_total)  # invert; the +1 rides in on the carry
            carry += 1
    out = 0
    for d in range(digits):
        shift = d * width
        t = carry
        for u in raws:
            t += (u >> shift) & mask_digit
        out |= (t & mask_digit) << shift
        carry = t >> width
    if out >= 1 << (total_bits - 1):
        out -= 1 << total_bits
    return out


def evaluate_serial(g: AdderGraph, inputs) -> list[int]:
    """Evaluate through digit-serial adders, modulo 2**total_bits per node."""
    vals = [0] * len(g.kind)
    for pos, nid in enumerate(g.inputs):
        vals[nid] = serial_sum([(int(inputs[pos]), 1)], g.digits, g.total_bits)
    start, node, sign = g.operand_start.tolist(), g.operand_node.tolist(), g.operand_sign.tolist()
    for nid in g.nodes:
        if start[nid] < start[nid + 1]:  # not an input, not an empty output
            ops = range(start[nid], start[nid + 1])
            vals[nid] = serial_sum([(vals[node[j]], sign[j]) for j in ops], g.digits, g.total_bits)
    return [vals[o] for o in g.outputs]

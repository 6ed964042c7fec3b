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

import heapq
from dataclasses import dataclass, replace

import numpy as np

from .cse import CseResult

IN, ADD, DELAY, OUT = "in", "add", "delay", "out"
KINDS = (IN, ADD, DELAY, OUT)


class GraphValidationError(RuntimeError):
    """An adder graph violates its structural invariants."""


@dataclass(frozen=True)
class Node:
    id: int
    kind: str
    stage: int
    operands: tuple[tuple[int, int], ...]  # (node id, sign)


@dataclass(frozen=True)
class AdderGraph:
    """Acyclic add/delay pipeline with stage-aligned operands.

    ``digits`` is the serial schedule: 1 means fully parallel words, D > 1
    means each sample is processed as D digits of ``digit_width`` bits.
    Evaluation semantics are independent of the schedule.
    """

    nodes: tuple[Node, ...]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    digits: int = 1
    total_bits: int = 16
    outputs_aligned: bool = True
    name: str = ""

    @property
    def digit_width(self) -> int:
        return self.total_bits // self.digits

    def node(self, nid: int) -> Node:
        return self.nodes[nid]


@dataclass(frozen=True)
class CostReport:
    adders: int
    registers: int
    adds_plus_regs: int
    depth: int


class _Builder:
    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self._delay_of: dict[int, int] = {}  # source node id -> its delay node id

    def new(self, kind: str, stage: int, operands: tuple[tuple[int, int], ...]) -> int:
        nid = len(self.nodes)
        self.nodes.append(Node(nid, kind, stage, operands))
        return nid

    def stage(self, nid: int) -> int:
        return self.nodes[nid].stage

    def delay1(self, nid: int) -> int:
        got = self._delay_of.get(nid)
        if got is None:
            got = self.new(DELAY, self.stage(nid) + 1, ((nid, 1),))
            self._delay_of[nid] = got
        return got

    def delayed(self, nid: int, target_stage: int) -> int:
        while self.stage(nid) < target_stage:
            nid = self.delay1(nid)
        return nid


def _pack(b: _Builder, items: list[tuple[int, int]], arity: int) -> tuple[int, int]:
    """Reduce (node, sign) items to a single root; returns (node, sign).

    Earliest-ready values are combined first (canonical term order breaks
    stage ties), so values that become ready together merge without padding
    and a deep shared definition joins the tree near its own stage instead of
    dragging a delay chain behind every shallow term.
    """
    if len(items) == 1:
        return items[0]
    heap: list[tuple[int, int, int, int]] = [
        (b.stage(nid), k, nid, sg) for k, (nid, sg) in enumerate(items)
    ]
    heapq.heapify(heap)
    order = len(items)
    while len(heap) > 1:
        group = [heapq.heappop(heap) for _ in range(min(arity, len(heap)))]
        smax = group[-1][0]
        ops = tuple((b.delayed(nid, smax), sg) for _, _, nid, sg in group)
        heapq.heappush(heap, (smax + 1, order, b.new(ADD, smax + 1, ops), 1))
        order += 1
    _, _, nid, sg = heap[0]
    return nid, sg


def build_tree(
    result: CseResult,
    arity: int = 2,
    *,
    align_outputs: bool = True,
    total_bits: int = 16,
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
    env: dict[int, tuple[int, int]] = {}
    for i in range(result.n_inputs):
        env[i] = (b.new(IN, 0, ()), 1)
    for d in result.definitions:
        items = [(env[v][0], s * env[v][1]) for v, s in d.terms]
        assert d.id is not None
        env[d.id] = _pack(b, items, arity)
    roots: list[tuple[int, int] | None] = []
    for e in result.outputs:
        if not e.terms:
            roots.append(None)
            continue
        items = [(env[v][0], s * env[v][1]) for v, s in e.terms]
        roots.append(_pack(b, items, arity))
    out_ids = []
    if align_outputs:
        target = max((b.stage(r[0]) for r in roots if r is not None), default=0)
        for r in roots:
            if r is None:
                out_ids.append(b.new(OUT, target, ()))
            else:
                nid, sg = r
                out_ids.append(b.new(OUT, target, ((b.delayed(nid, target), sg),)))
    else:
        for r in roots:
            if r is None:
                out_ids.append(b.new(OUT, 0, ()))
            else:
                nid, sg = r
                out_ids.append(b.new(OUT, b.stage(nid), ((nid, sg),)))
    inputs = tuple(env[i][0] for i in range(result.n_inputs))
    g = AdderGraph(
        tuple(b.nodes), inputs, tuple(out_ids),
        outputs_aligned=align_outputs, total_bits=total_bits, name=name,
    )
    validate_graph(g)
    return g


def validate_graph(g: AdderGraph) -> None:
    """Check ids, arities, stage alignment and output alignment."""
    for nid, n in enumerate(g.nodes):
        if n.id != nid:
            raise GraphValidationError(f"node {nid} carries id {n.id}")
        for op, sign in n.operands:
            if not (0 <= op < nid):
                raise GraphValidationError(f"node {nid}: operand {op} is not an earlier node")
            if sign not in (-1, 1):
                raise GraphValidationError(f"node {nid}: operand sign {sign}")
        if n.kind == IN:
            if n.operands or n.stage != 0:
                raise GraphValidationError(f"input node {nid} must be bare at stage 0")
        elif n.kind == ADD:
            if not (2 <= len(n.operands) <= 3):
                raise GraphValidationError(f"add node {nid} has arity {len(n.operands)}")
            for op, _ in n.operands:
                if g.nodes[op].stage != n.stage - 1:
                    raise GraphValidationError(
                        f"add node {nid} at stage {n.stage} reads node {op} "
                        f"at stage {g.nodes[op].stage}"
                    )
        elif n.kind == DELAY:
            if len(n.operands) != 1:
                raise GraphValidationError(f"delay node {nid} needs exactly one operand")
            if g.nodes[n.operands[0][0]].stage != n.stage - 1:
                raise GraphValidationError(f"delay node {nid} skips stages")
        elif n.kind == OUT:
            if len(n.operands) > 1:
                raise GraphValidationError(f"output node {nid} has {len(n.operands)} operands")
            if n.operands and g.outputs_aligned and g.nodes[n.operands[0][0]].stage != n.stage:
                raise GraphValidationError(f"output node {nid} is not stage-aligned")
        else:
            raise GraphValidationError(f"node {nid} has unknown kind {n.kind!r}")
    if g.outputs_aligned and g.outputs:
        stages = {g.nodes[o].stage for o in g.outputs}
        if len(stages) > 1:
            raise GraphValidationError(f"output stages differ: {sorted(stages)}")
    if g.total_bits % g.digits:
        raise GraphValidationError(f"{g.digits} digits do not divide {g.total_bits} bits")


def cost(g: AdderGraph) -> CostReport:
    adders = sum(1 for n in g.nodes if n.kind == ADD)
    regs = sum(1 for n in g.nodes if n.kind == DELAY)
    depth = max((n.stage for n in g.nodes), default=0)
    return CostReport(adders, regs, adders + regs, depth)


def schedule_serial(g: AdderGraph, pixel_interval: int, total_bits: int = 16) -> AdderGraph:
    """Assign the digit-serial schedule matching the layer's pixel interval.

    With M cycles between samples the adders can compute one digit per cycle:
    D = min(M, total_bits) digits of total_bits/D bits each. The semantic
    value of every node is unchanged; the cycle model charges D cycles per
    sample and latency depth + D - 1, and the area estimate scales by 1/D.
    """
    if pixel_interval < 1:
        raise ValueError(f"pixel interval must be >= 1, got {pixel_interval}")
    digits = min(pixel_interval, total_bits)
    if total_bits % digits:
        raise ValueError(
            f"pixel interval {pixel_interval} gives {digits} digits, "
            f"which do not divide {total_bits} bits into a legal digit width"
        )
    return replace(g, digits=digits, total_bits=total_bits)


def area_slice_estimate(g: AdderGraph) -> float:
    """Slice-equivalent adder area: a parallel adder costs 2 slices, serial 2/D."""
    return cost(g).adders * 2.0 / g.digits


def evaluate_batch(g: AdderGraph, xs: np.ndarray) -> np.ndarray:
    """Exact evaluation of every output on a (n_inputs, batch) int matrix."""
    xs = np.asarray(xs, dtype=np.int64)
    if xs.shape[0] != len(g.inputs):
        raise ValueError(f"expected {len(g.inputs)} inputs, got {xs.shape[0]}")
    vals = np.zeros((len(g.nodes), xs.shape[1]), dtype=np.int64)
    for pos, nid in enumerate(g.inputs):
        vals[nid] = xs[pos]
    for n in g.nodes:
        if n.kind == IN or not n.operands:
            continue
        acc = vals[n.id]
        for op, sg in n.operands:
            if sg == 1:
                acc += vals[op]
            else:
                acc -= vals[op]
    return vals[list(g.outputs)]


def evaluate(g: AdderGraph, inputs) -> list[int]:
    """Exact signed evaluation of the graph on one input vector.

    Arithmetic is unbounded Python/NumPy int64 internally, wide enough that
    no intermediate overflows for 16-bit inputs and thousands of terms.
    """
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
    vals: dict[int, int] = {}
    for pos, nid in enumerate(g.inputs):
        vals[nid] = serial_sum([(int(inputs[pos]), 1)], g.digits, g.total_bits)
    for n in g.nodes:
        if n.kind == IN:
            continue
        if not n.operands:
            vals[n.id] = 0
            continue
        vals[n.id] = serial_sum(
            [(vals[op], sg) for op, sg in n.operands], g.digits, g.total_bits
        )
    return [vals[o] for o in g.outputs]

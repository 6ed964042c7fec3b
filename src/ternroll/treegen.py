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

from dataclasses import dataclass, replace

import numpy as np

from .cse import CseResult, _ranges, expand_paths
from .matrices import FrozenArrays

IN, ADD, DELAY, OUT = range(4)  # node kind codes, indices into KINDS
KINDS = ("in", "add", "delay", "out")


class GraphValidationError(RuntimeError):
    """An adder graph violates its structural invariants."""


@dataclass(frozen=True, eq=False)
class AdderGraph(FrozenArrays):
    """Acyclic add/delay pipeline with stage-aligned operands.

    Node ``i`` has kind code ``kind[i]`` (an index into ``KINDS``), pipeline
    stage ``stage[i]`` and the signed operands ``operand_node[j]``,
    ``operand_sign[j]`` for ``j`` in ``operand_start[i]:operand_start[i + 1]``.
    The arrays are read-only (see ``FrozenArrays``). The inputs and outputs
    are the ``IN`` and ``OUT`` nodes in id order. ``digits`` is the serial
    schedule: 1 means fully parallel words, D > 1 means each sample is
    processed as D digits of ``digit_width`` bits. Evaluation semantics are
    independent of the schedule. A graph that breaks an invariant cannot be
    made: see ``__post_init__``.
    """

    ARRAYS = dict(kind=np.int8, stage=np.int64, operand_start=np.int64, operand_node=np.int64, operand_sign=np.int8)

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
        """Check shapes, operands, arities, stages and the digit count; a
        ``GraphValidationError`` names the lowest bad node's first failed check."""
        super().__post_init__()
        kind, stage, start, node, sign = self.kind, self.stage, self.operand_start, self.operand_node, self.operand_sign
        n = kind.size
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
            | (kind == OUT) & ((arity > 1) | self.outputs_aligned & bad_lag)
            | (kind < IN) | (kind > OUT)
        )
        if bad.any():
            raise GraphValidationError(_node_error(self, int(np.argmax(bad))))
        stages = np.unique(stage[kind == OUT]).tolist()
        if self.outputs_aligned and len(stages) > 1:
            raise GraphValidationError(f"output stages differ: {stages}")
        if self.digits < 1 or self.total_bits % self.digits:
            raise GraphValidationError(f"{self.digits} digits do not divide {self.total_bits} bits")

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

    @property
    def shape(self) -> tuple[int, int]:
        return int(np.count_nonzero(self.kind == OUT)), int(np.count_nonzero(self.kind == IN))

    def expansion(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (output, input, coefficient) triples of the map (see ``expand_paths``)."""
        start, node, sign = self.operand_start, self.operand_node, self.operand_sign
        return expand_paths(start, node, sign, np.flatnonzero(self.kind == OUT), self.kind == IN)


@dataclass(frozen=True)
class CostReport:
    adders: int
    registers: int
    adds_plus_regs: int
    depth: int


def build_tree(
    result: CseResult,
    arity: int = 2,
    *,
    align_outputs: bool = True,
    name: str = "",
) -> AdderGraph:
    """Pack a CSE result into a pipelined adder graph.

    Each definition, in order, then each non-empty output is packed (see
    ``_merge``); a one-term sum passes its term through. An operand below
    its add's stage passes through delay registers, one chain per source
    node shared by every consumer. With ``align_outputs`` every output is
    padded with delays to the stage of the deepest one, so the whole vector
    leaves in the same cycle.

    Sums are packed a dependency wave at a time: a definition's wave is one
    more than the deepest definition it reads, and the outputs come last.
    Node ids are the order of creation when sums are packed one by one:
    the inputs; per add, the new delays of each operand slot, then the add;
    per output, its new delays, then the output node.
    """
    if arity not in (2, 3):
        raise ValueError(f"adder arity must be 2 or 3, got {arity}")
    return AdderGraph(*_build(result, arity, align_outputs), outputs_aligned=align_outputs, name=name)


def _build(result: CseResult, arity: int, align_outputs: bool) -> tuple[np.ndarray, ...]:
    """The read-only node arrays of ``build_tree``'s graph."""
    n_in, n_defs, n_out = result.n_inputs, len(result.ids), result.n_outputs
    n = np.diff(result.term_start)
    has = n[n_defs:] > 0
    n = np.concatenate([n[:n_defs], n[n_defs:][has]])  # the sums: definitions and non-empty outputs
    val, sign = result.term_values().astype(np.int32), result.term_sign
    adds = n - 1 if arity == 2 else n // 2
    first_term, first_add = np.cumsum(n) - n, np.cumsum(adds) - adds
    op_first = first_term + first_add - np.arange(len(n))  # a sum's adds have n + adds - 1 operands
    sizes = np.full(int(adds.sum()), arity, np.int8)  # operands of each add, in creation order
    if arity == 3:
        sizes[(first_add + adds - 1)[(n % 2 == 0) & (adds > 0)]] = 2
    n_adds, n_ops = len(sizes), int(sizes.sum())
    # a value is an input or a sum (value n_in + j): its root node, sign and stage
    v_node = np.arange(n_in + len(n), dtype=np.int32)  # provisional ids: inputs, then adds in creation order
    v_sign = np.ones(n_in + len(n), np.int8)
    v_stage = np.zeros(n_in + len(n), np.int32)
    # the adds' operands in creation order, then the outputs', then a spare slot for roots
    op_node = np.empty(n_ops + n_out + 1, np.int32)
    op_sign = np.empty(n_ops + n_out + 1, np.int8)
    add_stage = np.zeros(n_adds + 1, np.int32)  # and a spare add for roots, at stage 0: they are never late
    late = []  # operands below their add's stage: (node, stage, target, key, slot in op_node)

    def place(owner, pos, node, sgn, stg) -> None:
        """Put items (terms or adds) in the operand slots of the adds that
        take them. The one item of a sum that no add takes is its root."""
        root = pos == n[owner] + adds[owner] - 1
        v = n_in + owner[root]
        v_node[v], v_sign[v], v_stage[v] = node[root], sgn[root], stg[root]
        slot = np.where(root, len(op_node) - 1, op_first[owner] + pos)
        op_node[slot], op_sign[slot] = node, sgn
        add = np.where(root, n_adds, first_add[owner] + pos // arity)
        target = add_stage[add] - 1
        low = np.flatnonzero(stg < target)
        late.append((node[low], stg[low], target[low], 4 * add[low] + pos[low] % arity, slot[low]))

    def pack(s: np.ndarray) -> None:
        """Pack the sums ``s``, whose terms' values are all known."""
        t = _ranges(first_term[s], n[s])
        v = val[t]
        stg = v_stage[v]
        pos, a_stage, a_pos = _merge(n[s], stg, arity)
        g = _ranges(first_add[s], adds[s])
        add_stage[g] = a_stage
        place(np.repeat(s, n[s]), pos, v_node[v], sign[t] * v_sign[v], stg)
        del t, v, stg, pos
        place(np.repeat(s, adds[s]), a_pos, n_in + g, np.ones(len(g), np.int8), a_stage)

    wave = _waves(val, n, n_in, n_defs)
    for w in range(1, int(wave.max(initial=0)) + 1):
        pack(np.flatnonzero(wave == w))
    o = np.flatnonzero(has)
    r = n_in + n_defs + np.arange(len(o))  # the values of the non-empty outputs
    out_stage = np.full(n_out, v_stage[r].max(initial=0) if align_outputs else 0, np.int64)
    if not align_outputs:
        out_stage[o] = v_stage[r]
    op_node[n_ops + o], op_sign[n_ops + o] = v_node[r], v_sign[r]
    low = out_stage[o] > v_stage[r]
    late.append((v_node[r][low], v_stage[r][low], out_stage[o][low], 4 * (n_adds + o[low]), n_ops + o[low]))
    del val, sign, v_node, v_sign, v_stage, r  # not kept while the graph's arrays are laid out
    delays = _delays(*(np.concatenate(x) for x in zip(*late)), n_in + n_adds, op_node)
    del late
    return _assemble(n_in, sizes, add_stage[:-1], op_node, op_sign, *delays, out_stage, has)


def _assemble(n_in, sizes, add_stage, op_node, op_sign, d_node, d_stage, d_key, out_stage, has):
    """Number the nodes in creation order and lay out their arrays.

    The adds' operands (``sizes`` each) come in creation order in
    ``op_node``/``op_sign``, then one per output, all as provisional ids:
    inputs, adds, then delays. A delay has key 4u + slot when made for an
    operand slot of add u, and 4(adds + o) for output o; it follows the
    delays of smaller keys and the adds and outputs (keys 4u + 3 and
    4(adds + o) + 1) below it.
    """
    n_adds, n_ops, n_out = len(sizes), int(sizes.sum()), len(has)
    by_key = np.argsort(d_key, kind="stable")
    d_id = np.empty(len(d_key), np.int64)
    d_id[by_key] = np.arange(len(d_key))
    d_id += n_in + d_key // 4
    unit = np.arange(n_adds + n_out)
    u_id = n_in + unit + np.searchsorted(d_key[by_key], 4 * unit + np.where(unit < n_adds, 3, 1))
    del by_key, unit
    add_id, out_id = u_id[:n_adds], u_id[n_adds:]
    total = n_in + len(u_id) + len(d_id)
    kind = np.full(total, IN, np.int8)
    stage = np.zeros(total, np.int64)
    start = np.zeros(total + 1, np.int64)
    for ids, k, st, count in (
        (add_id, ADD, add_stage, sizes),
        (d_id, DELAY, d_stage, 1),
        (out_id, OUT, out_stage, has),
    ):
        kind[ids], stage[ids], start[ids + 1] = k, st, count
    np.cumsum(start, out=start)
    fin = np.concatenate([np.arange(n_in), add_id, d_id])  # provisional id -> final id
    node = np.empty(start[-1], np.int64)
    sign = np.empty(start[-1], np.int8)
    at = np.repeat(add_id - n_in - np.arange(n_adds), sizes)  # the delays before each add shift its operands
    at += np.arange(n_ops)
    node[at], sign[at] = fin[op_node[:n_ops]], op_sign[:n_ops]
    node[start[d_id]], sign[start[d_id]] = fin[d_node], 1
    o = np.flatnonzero(has)
    node[start[out_id[o]]], sign[start[out_id[o]]] = fin[op_node[n_ops + o]], op_sign[n_ops + o]
    for a in (kind, stage, start, node, sign):
        a.flags.writeable = False
    return kind, stage, start, node, sign


def _waves(val: np.ndarray, n: np.ndarray, n_in: int, n_defs: int) -> np.ndarray:
    """Each sum's dependency wave: a definition's is one more than the
    deepest definition it reads (inputs are wave 0); the outputs come last."""
    wave = np.zeros(n_in + len(n), np.int64)  # by value
    if n_defs:
        reads, starts = val[: n[:n_defs].sum()], np.cumsum(n[:n_defs]) - n[:n_defs]
        while not np.array_equal(w := np.maximum.reduceat(wave[reads], starts) + 1, wave[n_in : n_in + n_defs]):
            wave[n_in : n_in + n_defs] = w
    wave[n_in + n_defs :] = wave.max() + 1
    return wave[n_in:]


def _delays(node, stage, target, key, slot, first_id: int, op_node: np.ndarray):
    """Delay chains for operands below their add's stage.

    Each request asks for ``node``, at ``stage``, to be delayed to
    ``target``, and has the creation ``key`` of its operand slot. A source
    node gets one chain, up to the highest target asked of it, and the delay
    of stage t is made by the request of smallest key that reaches t. Points
    each request's ``slot`` of ``op_node`` at its chain's delay of the target
    stage, and returns each delay's operand, stage and key. Delays are
    numbered from ``first_id``, chain by chain.
    """
    order = np.lexsort((key, node))
    node, stage, target, key, slot = (a[order] for a in (node, stage, target, key, slot))
    first = np.ones(len(node), bool)  # a source's first request
    first[1:] = node[1:] != node[:-1]
    lift = (np.cumsum(first) - 1) * (int(target.max(initial=0)) + 1)
    done = np.where(first, stage, np.roll(np.maximum.accumulate(target + lift) - lift, 1))  # delayed so far
    new = np.maximum(target - done, 0)
    base = np.cumsum(new) - new
    op_node[slot] = first_id + base + target - done - 1
    d_stage = _ranges(done + 1, new)
    chained = first_id + np.arange(len(d_stage)) - 1  # the delay below
    d_node = np.where(d_stage == np.repeat(stage, new) + 1, np.repeat(node, new), chained)
    return d_node, d_stage, np.repeat(key, new)


def _merge(n: np.ndarray, stage: np.ndarray, arity: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge positions of a wave of sums, all packed at once.

    Sum j has ``n[j]`` terms, whose stages are listed sum by sum in canonical
    order. A sum's items are merged by stage; at equal stage its terms come
    first, in canonical order, then its adds in the order they are made. Add
    k takes the items at positions arity·k onwards, arity of them or two when
    only two are left, and sits one stage above the last. So the adds of
    stage L are those whose last item lies below the items of stage L, and
    one pass over the levels places them all. Returns each term's position,
    and each add's stage and position, sum by sum.

    Taking the earliest-ready items first means values that become ready
    together merge without padding, and a deep shared definition joins the
    tree near its own stage instead of dragging a delay chain behind every
    shallow term.
    """
    m = len(n)
    adds = n - 1 if arity == 2 else n // 2
    root = n + adds - 1  # the position of the one item no add takes
    lo = int(stage.min())
    span = int(stage.max()) - lo + 1
    owner = np.repeat(np.arange(m), n)
    key = owner * span + (stage - lo)  # sum, then stage
    # column c: each sum's terms of stage <= lo + c
    terms_upto = np.cumsum(np.bincount(key, minlength=m * span).reshape(m, span), axis=1)
    made = []  # row r: each sum's adds of stage <= lo + r
    below = np.zeros(m, np.int64)  # each sum's items of stage < lo + len(made)
    while True:
        # add k's last item is at arity·k + arity - 1, but the last add's at root - 1
        k = np.minimum(below // arity, adds - 1) + (below >= root)
        made.append(k)
        if len(made) >= span and np.array_equal(k, adds):
            break
        below = terms_upto[:, min(len(made), span) - 1] + k
    made = np.array(made).T
    made_below = np.hstack([np.zeros((m, 1), np.int64), made[:, :-1]])
    per_level = (made - made_below).ravel()
    # a term follows its sum's terms of lower stage or earlier order, and adds of lower stage
    pos = np.empty(len(stage), np.int64)
    pos[np.argsort(key, kind="stable")] = _ranges(np.zeros(m, np.int64), n)
    pos += made_below[owner, stage - lo]
    levels = np.arange(lo, lo + made.shape[1])
    add_stage = np.repeat(np.tile(levels, m), per_level)
    # an add follows its sum's earlier adds and terms of stage up to its own
    add_pos = _ranges(np.zeros(m, np.int64), adds)
    add_pos += np.repeat(terms_upto[:, np.minimum(levels - lo, span - 1)].ravel(), per_level)
    return pos, add_stage, add_pos


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

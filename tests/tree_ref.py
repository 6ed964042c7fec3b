"""Independent reference for adder tree construction.

Plain Python over plain lists, with no imports from the package under test:
one node created at a time, in the order the packing rule meets them. The
result is a graph in the form ``graph_ref`` reads: ``kinds`` (the names
"in", "add", "delay" and "out"), ``stages``, and ``operands``, one list of
(node, sign) pairs per node.

Each sum is reduced by merging two stage-ordered queues: its terms, sorted
by the stage of their value (stable, so canonical order breaks ties), and
the adds made so far. At equal stages a term is taken first. Each add takes
``arity`` items, or two when only two are left; items below the stage of
the add's last item pass through delay registers, one chain per source node
shared by every consumer.
"""


class _Builder:
    """Appends nodes to lists; shares one delay chain per source node."""

    def __init__(self) -> None:
        self.kinds: list[str] = []
        self.stages: list[int] = []
        self.operands: list[list[tuple[int, int]]] = []
        self._delay_of: dict[int, int] = {}  # source node id -> its delay node id

    def new(self, kind: str, stage: int, ops=()) -> int:
        self.kinds.append(kind)
        self.stages.append(stage)
        self.operands.append(list(ops))
        return len(self.kinds) - 1

    def delayed(self, nid: int, target_stage: int) -> int:
        while self.stages[nid] < target_stage:
            got = self._delay_of.get(nid)
            if got is None:
                got = self._delay_of[nid] = self.new("delay", self.stages[nid] + 1, [(nid, 1)])
            nid = got
        return nid


def _pack(b: _Builder, nids: list[int], signs: list[int], arity: int) -> tuple[int, int]:
    """Reduce signed nodes to a single root; returns (node, sign)."""
    stage = b.stages
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
        made.append(b.new("add", smax + 1, zip(ops, sgs)))
    return (qn[i], qs[i]) if j == len(made) else (made[j], 1)


def build_tree(n_inputs, defs, outs, arity=2, align_outputs=True):
    """(kinds, stages, operands) of a CSE result packed into adder trees.

    ``defs`` lists each definition as ``(id, terms)`` and ``outs`` the terms
    of each output, a term being a (variable, sign) pair. Definitions are
    built first, in order; then every output, padded with delays to the
    stage of the deepest one when ``align_outputs`` is set.
    """
    b = _Builder()
    env = {i: (b.new("in", 0), 1) for i in range(n_inputs)}  # variable -> (node, sign)

    def pack(terms):
        return _pack(b, [env[v][0] for v, _ in terms], [s * env[v][1] for v, s in terms], arity)

    for i, terms in defs:
        env[i] = pack(terms)
    roots = [pack(terms) if terms else None for terms in outs]
    target = max((b.stages[r[0]] for r in roots if r is not None), default=0) if align_outputs else 0
    for r in roots:
        if r is None:
            b.new("out", target)
        else:
            nid = b.delayed(r[0], target) if align_outputs else r[0]
            b.new("out", b.stages[nid], [(nid, r[1])])
    return b.kinds, b.stages, b.operands

"""One ``%``-format over every integer, the reference for
``ternroll.netlist.emit``."""

from functools import lru_cache

import numpy as np

from ternroll.treegen import KINDS, AdderGraph


def emit(g: AdderGraph) -> str:
    """Serialize a graph, nodes in id order."""
    head = (
        f"ngl inputs {len(g.inputs)} outputs {len(g.outputs)} nodes {len(g.kind)} "
        f"digits {g.digits} total {g.total_bits} aligned {1 if g.outputs_aligned else 0}"
    )
    if g.name:
        head += f" name {g.name}"
    # One %-format fills the whole body: each node's line template, then its
    # id and stage and its operand ids, in node order.
    n, m, start = len(g.kind), len(g.operand_node), g.operand_start
    arity = np.diff(start)
    owner = np.repeat(np.arange(n), arity)
    negative = np.bincount(owner, (g.operand_sign < 0) << (np.arange(m) - start[owner]), minlength=n)
    code = (g.kind.astype(np.int64) * 4 + arity) * 8 + negative.astype(np.int64)
    values = np.insert(g.operand_node, np.repeat(start[:-1], 2), np.column_stack([np.arange(n), g.stage]).ravel())
    return head + "".join(_line_templates(g.digit_width)[code].tolist()) % tuple(values.tolist()) + "\n"


@lru_cache(maxsize=8)
def _line_templates(width: int) -> np.ndarray:
    """Node line templates, indexed by (kind * 4 + arity) * 8 + the bit mask
    of the negative operands; a graph's arities are at most 3."""
    return np.array([
        f"\nnode %d {kind} %d {width}" + "".join(" -%d" if neg >> k & 1 else " +%d" for k in range(arity))
        for kind in KINDS for arity in range(4) for neg in range(8)
    ], dtype=object)

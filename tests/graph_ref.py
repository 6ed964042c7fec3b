"""Independent reference for adder graph validation.

Plain Python over plain lists, with no imports from the package under test:
one pass over the nodes in id order, each node's checks in a fixed order,
and the first failed check named. A graph is ``kinds`` (the names "in",
"add", "delay" and "out"), ``stages``, and ``operands``, one list of
(node, sign) pairs per node; its outputs are its "out" nodes.
"""


def validation_error(kinds, stages, operands, aligned=True, digits=1, total_bits=16):
    """The message of the first failed check, or None for a valid graph."""
    for nid, (kind, stage, ops) in enumerate(zip(kinds, stages, operands)):
        for op, sign in ops:
            if not (0 <= op < nid):
                return f"node {nid}: operand {op} is not an earlier node"
            if sign not in (-1, 1):
                return f"node {nid}: operand sign {sign}"
        if stage < 0:
            return f"node {nid} is at stage {stage}, below 0"
        if kind == "in":
            if ops or stage != 0:
                return f"input node {nid} must be bare at stage 0"
        elif kind == "add":
            if not (2 <= len(ops) <= 3):
                return f"add node {nid} has arity {len(ops)}"
            for op, _ in ops:
                if stages[op] != stage - 1:
                    return f"add node {nid} at stage {stage} reads node {op} at stage {stages[op]}"
        elif kind == "delay":
            if len(ops) != 1:
                return f"delay node {nid} needs exactly one operand"
            if stages[ops[0][0]] != stage - 1:
                return f"delay node {nid} skips stages"
        elif kind == "out":
            if len(ops) > 1:
                return f"output node {nid} has {len(ops)} operands"
            if ops and aligned and stages[ops[0][0]] != stage:
                return f"output node {nid} is not stage-aligned"
        else:
            return f"node {nid} has unknown kind {kind!r}"
    out_stages = {stage for kind, stage in zip(kinds, stages) if kind == "out"}
    if aligned and len(out_stages) > 1:
        return f"output stages differ: {sorted(out_stages)}"
    if total_bits % digits:
        return f"{digits} digits do not divide {total_bits} bits"
    return None

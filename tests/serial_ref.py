"""Digit-serial adder model: the value a serial adder graph computes.

``serial_sum`` adds one node's operands a digit a cycle with a carry
register, as the hardware does; ``evaluate_serial`` runs a whole graph that
way. Plain Python over the graph's arrays, importing nothing from the
package, so tests can check the parallel evaluation against it modulo
2**total_bits.
"""


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


def evaluate_serial(g, inputs) -> list[int]:
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

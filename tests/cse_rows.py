"""A ``CseResult`` as plain lists, and back.

``rows`` gives ``(defs, outs)``: ``defs`` holds one ``(id, terms)`` pair per
definition and ``outs`` the terms of each output, where ``terms`` is a tuple
of (variable, sign) pairs of ints. ``result`` builds a ``CseResult`` from the
same lists, so the result's own checks apply.
"""

from itertools import accumulate

from ternroll.cse import CseResult


def rows(r: CseResult) -> tuple[list[tuple[int, tuple]], list[tuple]]:
    start = r.term_start.tolist()
    pairs = list(zip(r.term_var.tolist(), r.term_sign.tolist()))
    terms = [tuple(pairs[lo:hi]) for lo, hi in zip(start, start[1:])]
    k = len(r.ids)
    return list(zip(r.ids.tolist(), terms[:k])), terms[k:]


def result(n_inputs: int, defs, outs) -> CseResult:
    every = [terms for _, terms in defs] + list(outs)
    pairs = [pair for terms in every for pair in terms]
    start = [0, *accumulate(map(len, every))]
    return CseResult(n_inputs, [i for i, _ in defs], start, [v for v, _ in pairs], [s for _, s in pairs])

"""Independent reference for the ``td`` and ``bu`` CSE passes.

Pure Python over {variable: sign} rows, no imports from the package under
test. Each engine recomputes what it needs from the working rows on every
step, following the tie rules stated in the ``td_cse`` and ``bu_cse``
docstrings, so it shares no state, layout or incremental update with the
engines it checks. A matrix goes in as a list of rows of trits; a run
returns its ``.cse`` text, its (extractions, total terms) and its trace of
(variable, pattern terms, occurrences) steps.
"""

from collections import Counter
from itertools import combinations


def pair_rows(rows):
    """{(u, v, s_u * s_v): ascending row indices} over the pairs u < v of each row."""
    occ = {}
    for r, row in enumerate(rows):
        for (u, su), (v, sv) in combinations(sorted(row.items()), 2):
            occ.setdefault((u, v, su * sv), []).append(r)
    return occ


def _common(a, b):
    """The direct and the negated common pattern of two sets of (variable,
    sign) terms, signed as in ``a``."""
    return a & b, a & {(v, -s) for v, s in b}


def pattern_sizes(rows):
    """Largest common signed pattern of every pair of rows; 0 on the diagonal."""
    n = len(rows)
    return [
        [0 if r == s else max(map(len, _common(rows[r].items(), rows[s].items()))) for s in range(n)]
        for r in range(n)
    ]


def _result(defs, outs, trace):
    def body(terms):
        return "".join(f" {'+' if s > 0 else '-'}x{v}" for v, s in terms)

    lines = [f"def x{var} ={body(terms)}" for var, terms in defs]
    lines += [f"out {r} ={body(sorted(row.items()))}" for r, row in enumerate(outs)]
    total = sum(len(t) for _, t in defs) + sum(len(row) for row in outs)
    return "\n".join(lines) + "\n", (len(defs), total), trace


def _rows(matrix):
    return [{c: t for c, t in enumerate(row) if t} for row in matrix]


def td(matrix, max_extractions=None):
    """The pair in the most rows first; ties to the smallest first row, then
    the smallest (i, j), then the same-sign orientation before the mixed one."""
    rows, var = _rows(matrix), len(matrix[0])
    defs, trace = [], []
    while max_extractions is None or len(defs) < max_extractions:
        occ = pair_rows(rows)
        cands = [(-len(hits), hits[0], u, v, -rel) for (u, v, rel), hits in occ.items() if len(hits) >= 2]
        if not cands:
            break
        *_, i, j, neg = min(cands)  # -rel, so that the same-sign pair (+1) sorts first
        hits = occ[i, j, -neg]
        for r in hits:
            rows[r][var] = rows[r].pop(i)
            del rows[r][j]
        defs.append((var, ((i, 1), (j, -neg))))
        trace.append((var, ((i, 1), (j, -neg)), len(hits)))
        var += 1
    return _result(defs, rows, trace)


def _bu_pattern(rows):
    """The sorted terms of the pattern to extract, or None below two terms.

    Every pair of rows offers its larger orientation (the direct one on
    equal size), negated when its smallest variable is subtracted. The
    largest pattern wins, then the smallest variable tuple, then the
    smallest sign tuple with + before -. Equal rows offer equal patterns,
    so each distinct row is paired with the others once, and with itself
    when it occurs twice. No pattern is longer than either of its rows, so
    rows are visited longest first and the scan stops at rows shorter than
    the best pattern so far.
    """
    counts = Counter(frozenset(row.items()) for row in rows if len(row) >= 2)
    negation = {a: frozenset((v, -s) for v, s in a) for a in counts}
    distinct = sorted(counts, key=len, reverse=True)
    best, size = None, 2
    for i, a in enumerate(distinct):
        if len(a) < size:
            break
        for b in [a] * (counts[a] > 1) + distinct[i + 1 :]:
            if len(b) < size:
                break
            direct, negated = a & b, a & negation[b]
            pat = direct if len(direct) >= len(negated) else negated
            if len(pat) < size:
                continue
            pat = sorted(pat)
            if pat[0][1] < 0:
                pat = [(v, -s) for v, s in pat]
            key = (-len(pat), [v for v, _ in pat], [s < 0 for _, s in pat])
            if best is None or key < best[0]:
                best, size = (key, pat), len(pat)
    return None if best is None else best[1]


def _topo(bodies):
    """Definitions ordered so that each uses only inputs and earlier ones;
    among those ready, the smallest variable first."""
    pending, out = dict(bodies), []
    while pending:
        var = min(v for v, body in pending.items() if not any(u in pending for u in body))
        out.append((var, tuple(sorted(pending.pop(var).items()))))
    return out


def bu(matrix, max_extractions=None):
    """The largest common pattern first, rewritten in every working row that
    holds it in either orientation, then appended as a working row."""
    rows, var = _rows(matrix), len(matrix[0])
    trace = []
    while max_extractions is None or len(trace) < max_extractions:
        pat = _bu_pattern(rows)
        if pat is None:
            break
        hits = 0
        for row in rows:
            sign = next((g for g in (1, -1) if all(row.get(v) == g * s for v, s in pat)), 0)
            if sign:
                for v, _ in pat:
                    del row[v]
                row[var] = sign
                hits += 1
        rows.append(dict(pat))
        trace.append((var, tuple(pat), hits))
        var += 1
    n_out, n_in = len(matrix), len(matrix[0])
    defs = _topo([(n_in + k, rows[n_out + k]) for k in range(len(trace))])
    return _result(defs, rows[:n_out], trace)

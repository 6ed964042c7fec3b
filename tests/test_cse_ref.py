"""The ``td`` and ``bu`` engines against the independent reference in ``cse_ref``.

Every run compares the ``.cse`` text, the stats and the extraction trace.
The corpus is 322 seeded matrices, each run by both methods with and
without ``max_extractions=3``: 1,288 engine runs. The many-row part gives
``td`` row bitsets of four and five words and uint32 keys; the word-edge
part puts the row count on each side of a 64-row word boundary, and in one
matrix every repeated pair first occurs in the second word; the wide part
gives ``bu`` uint16 entries and bitsets of several words; the growth part
makes both engines grow past their first capacity. The last four parts
pin the incremental state: ``bu`` pairs queued while its rows pass a word,
tied at variables on both sides of 256, and left at the extracted size by
near-duplicate rows, and a ``td`` pair bound that is stale when it is the
largest.
"""

import numpy as np
import pytest

from ternroll import TernaryMatrix, bu_cse, td_cse
from ternroll.cse import format_cse

from . import cse_ref
from .trits import random_ternary


def _small():
    rng = np.random.default_rng(2604)
    return [
        random_ternary(int(rng.integers(1, 13)), int(rng.integers(2, 15)), float(rng.uniform(0.2, 0.8)), rng)
        for _ in range(300)
    ]


def _shapes(shapes, seed):
    rng = np.random.default_rng(seed)
    return [random_ternary(rows, cols, zeros, rng) for rows, cols, zeros in shapes]


def _word_edges():
    rng = np.random.default_rng(2607)
    out = [random_ternary(rows, int(rng.integers(3, 7)), 0.4, rng) for rows in (63, 64, 65, 127, 128, 129, 320)]
    # one term in each of the first 64 rows, so every pair first occurs in the second word
    late = random_ternary(128, 5, 0.3, rng).entries.copy()
    late[:64] = 0
    late[np.arange(64), np.arange(64) % 5] = 1
    return out + [TernaryMatrix(late)]


def _near_duplicates():
    # four copies of each of four rows, each copy signed at random with six
    # entries negated: pairs of copies share one pattern directly and one
    # negated, so an extraction leaves pairs at the size it took
    rng = np.random.default_rng(2609)
    base = np.repeat(random_ternary(4, 20, 0.3, rng).entries, 4, axis=0)
    for row in base:
        row *= rng.choice([-1, 1])
        row[rng.permutation(20)[:6]] *= -1
    return [TernaryMatrix(base)]


CORPUS = {
    "small_300": _small,
    "many_rows": lambda: _shapes([(256, 4, 0.3), (260, 6, 0.5), (300, 5, 0.4), (280, 8, 0.7)], 2605),
    "word_edges": _word_edges,
    "wide": lambda: _shapes([(2, 256, 0.5), (4, 260, 0.7), (5, 300, 0.75), (8, 256, 0.8)], 2606),
    "growth": lambda: [
        TernaryMatrix(np.array([[1] * 9, [-1] * 9], dtype=np.int8)),
        random_ternary(32, 12, 0.0, np.random.default_rng(7)),
    ],
    # bu's variables pass 64 while pairs offered at one word are still queued
    "width_62": lambda: _shapes([(24, 62, 0.3)], 2608),
    # bu's tied patterns differ in variables on both sides of 256
    "wide_ties": lambda: _shapes([(10, 270, 0.75)], 2606),
    "near_duplicates": _near_duplicates,
    # after x5 = +x0 -x1 the bounds of x2 and x3 are stale and come first;
    # the winner is (x4, x5)
    "td_stale_bound": lambda: [TernaryMatrix(np.array([[-1, 1, 0, 1, -1], [-1, 1, -1, -1, -1], [0, 1, -1, 1, 1]], dtype=np.int8))],
}

METHODS = {"td": (td_cse, cse_ref.td), "bu": (bu_cse, cse_ref.bu)}


@pytest.mark.parametrize("limit", [None, 3], ids=["full", "max3"])
@pytest.mark.parametrize("case", list(CORPUS))
@pytest.mark.parametrize("method", list(METHODS))
def test_engine_matches_reference(method, case, limit):
    engine, reference = METHODS[method]
    for k, m in enumerate(CORPUS[case]()):
        trace = []
        r = engine(m, max_extractions=limit, trace=trace)
        got = (
            format_cse(r),
            (r.stats.extractions, r.stats.total_terms),
            [(ev.var, ev.pattern, ev.occurrences) for ev in trace],
        )
        assert got == reference(m.entries.tolist(), limit), f"matrix {k} ({m.rows}x{m.cols})"

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ternroll import cse
from ternroll import (
    TernaryMatrix,
    bu_cse,
    find_counterexample,
    no_cse,
    td_cse,
)
from ternroll.cse import (
    CseFormatError,
    CseResult,
    format_cse,
    parse_cse,
)

from . import cse_ref, cse_rows
from .basis import dense
from .trits import random_ternary


def terms(*pairs):
    return tuple(pairs)


# ---------------------------------------------------------------------------
# Worked 7x6 example, top-down


def test_td_first_extraction_and_rewritten_system(m7x6):
    trace = []
    r = td_cse(m7x6, max_extractions=1, trace=trace)
    assert trace[0].pattern == terms((2, 1), (3, 1))
    assert trace[0].occurrences == 3
    defs, outs = cse_rows.rows(r)
    assert outs == [
        terms((6, 1)),
        terms((0, 1), (4, 1), (6, 1)),
        terms((1, 1), (4, 1), (5, 1)),
        terms((1, 1), (5, 1)),
        terms((0, 1), (6, 1)),
        terms((0, 1), (3, 1)),
        terms((1, 1), (4, 1), (5, 1)),
    ]
    assert defs[0][0] == 6
    assert defs[0][1] == terms((2, 1), (3, 1))


def test_td_full_run_equivalent(m7x6):
    r = td_cse(m7x6)
    assert find_counterexample(m7x6, r) is None
    assert np.array_equal(dense(r), m7x6.entries)


def test_td_disjoint_singletons_no_extractions():
    m = TernaryMatrix(np.eye(4, dtype=np.int8))
    r = td_cse(m)
    assert r.stats.extractions == 0
    assert cse_rows.rows(r)[1] == [terms((k, 1)) for k in range(4)]


def test_td_negated_pair_shares_one_definition():
    m = TernaryMatrix(np.array([[1, 1], [-1, -1]], dtype=np.int8))
    r = td_cse(m)
    defs, outs = cse_rows.rows(r)
    assert len(defs) == 1
    assert defs[0][1] == terms((0, 1), (1, 1))
    assert outs == [terms((2, 1)), terms((2, -1))]
    # brute force over both possible extractions confirms cost 1 is minimal
    assert find_counterexample(m, r) is None


def test_td_progress_reduces_adds_by_freq_minus_one(m7x6):
    def adds(result: CseResult) -> int:
        defs, outs = cse_rows.rows(result)
        exprs = [t for _, t in defs] + outs
        return sum(max(len(e) - 1, 0) for e in exprs)

    full_trace = []
    td_cse(m7x6, trace=full_trace)
    prev = adds(no_cse(m7x6))
    for k, ev in enumerate(full_trace, start=1):
        cur = adds(td_cse(m7x6, max_extractions=k))
        assert prev - cur == ev.occurrences - 1
        assert ev.occurrences >= 2
        prev = cur
    assert len(full_trace) <= no_cse(m7x6).stats.total_terms


def test_td_termination_no_pair_twice(m7x6):
    r = td_cse(m7x6)
    rows = [dict(t) for t in cse_rows.rows(r)[1]]
    assert all(len(hits) < 2 for hits in cse_ref.pair_rows(rows).values())


def test_td_grows_past_its_initial_capacity():
    # 18 terms start with room for 18 // 4 + 1 = 5 new variables; 8 are needed
    m = TernaryMatrix(np.array([[1] * 9, [-1] * 9], dtype=np.int8))
    defs, outs = cse_rows.rows(td_cse(m))
    assert [t for _, t in defs] == [
        terms((a, 1), (a + 1, 1)) for a in range(0, 16, 2)
    ]
    assert outs == [terms((16, 1)), terms((16, -1))]


def test_td_deterministic(rng):
    m = random_ternary(12, 16, 0.5, rng)
    a = td_cse(m)
    b = td_cse(m)
    assert a == b


# ---------------------------------------------------------------------------
# Worked 7x6 example, bottom-up


def test_bu_first_extraction_appends_working_row(m7x6):
    trace = []
    r = bu_cse(m7x6, max_extractions=1, trace=trace)
    assert trace[0].pattern == terms((0, 1), (2, 1), (3, 1))
    assert trace[0].occurrences == 2
    # the appended row is the definition body, so rows 1 and 4 reference it
    defs, outs = cse_rows.rows(r)
    assert defs[0][0] == 6
    assert defs[0][1] == terms((0, 1), (2, 1), (3, 1))
    assert outs == [
        terms((2, 1), (3, 1)),
        terms((4, 1), (6, 1)),
        terms((1, 1), (4, 1), (5, 1)),
        terms((1, 1), (5, 1)),
        terms((6, 1)),
        terms((0, 1), (3, 1)),
        terms((1, 1), (4, 1), (5, 1)),
    ]


def test_bu_appended_row_is_further_decomposed(m7x6):
    trace = []
    r = bu_cse(m7x6, trace=trace)
    assert trace[0].pattern == terms((0, 1), (2, 1), (3, 1))
    # x6 still contains a removable two-term pattern, so its body ends up
    # rewritten in terms of a later extraction
    defs, _ = cse_rows.rows(r)
    x6 = next(t for i, t in defs if i == 6)
    assert len(x6) == 2
    expanded = dense(cse_rows.result(r.n_inputs, defs, [((6, 1),)]))
    assert expanded.tolist() == [[1, 0, 1, 1, 0, 0]]
    assert find_counterexample(m7x6, r) is None
    assert np.array_equal(dense(r), m7x6.entries)


def test_bu_definitions_topological(m7x6, rng):
    for m in [m7x6] + [random_ternary(8, 10, 0.4, rng) for _ in range(3)]:
        r = bu_cse(m)
        defined = set(range(r.n_inputs))
        for i, t in cse_rows.rows(r)[0]:
            assert all(v in defined for v, _ in t)
            defined.add(i)


def test_bu_identical_rows():
    m = TernaryMatrix(np.array([[1, 1, 1], [1, 1, 1]], dtype=np.int8))
    defs, outs = cse_rows.rows(bu_cse(m))
    assert len(defs) == 1
    assert defs[0][1] == terms((0, 1), (1, 1), (2, 1))
    assert outs == [terms((3, 1)), terms((3, 1))]


def test_bu_negated_orientation():
    m = TernaryMatrix(np.array([[1, 1, 0], [-1, -1, 0]], dtype=np.int8))
    defs, outs = cse_rows.rows(bu_cse(m))
    assert len(defs) == 1
    assert outs == [terms((3, 1)), terms((3, -1))]


def test_bu_grows_past_its_initial_capacity():
    # room for terms // 8 + 1 appended rows, whose variables fit one 64-bit
    # word, at first; this needs more rows, and variables past that word
    m = random_ternary(32, 12, 0.0, np.random.default_rng(7))
    room = np.count_nonzero(m.entries) // 8 + 1
    r = bu_cse(m)
    assert m.cols + room <= 64 < m.cols + r.stats.extractions
    assert np.array_equal(dense(r), m.entries)


def test_bu_deterministic(rng):
    m = random_ternary(12, 16, 0.5, rng)
    assert bu_cse(m) == bu_cse(m)


def test_bu_termination_no_common_pattern_left(m7x6):
    r = bu_cse(m7x6)
    defs, outs = cse_rows.rows(r)
    rows = [dict(t) for t in outs] + [dict(t) for _, t in defs]
    assert max(map(max, cse_ref.pattern_sizes(rows))) <= 1


def test_pattern_matrix_untouched_pairs_never_grow(rng):
    m = random_ternary(10, 14, 0.5, rng)
    rows = [{int(c): int(row[c]) for c in np.flatnonzero(row)} for row in m.entries]
    before = cse_ref.pattern_sizes(rows)
    for k in range(1, 4):
        r = bu_cse(m, max_extractions=k)
        outs = cse_rows.rows(r)[1]
        after_rows = [dict(t) for t in outs]
        after = cse_ref.pattern_sizes(after_rows)
        untouched = [
            i
            for i in range(m.rows)
            if dict(outs[i]) == rows[i]
        ]
        for a in untouched:
            for b in untouched:
                assert after[a][b] <= before[a][b]
                assert after[a][b] == before[a][b]  # untouched pairs are stable


# ---------------------------------------------------------------------------
# Exhaustive-sequence oracle on a 3-row instance


def _bu_cost(defs, outs):
    return sum(max(len(e) - 1, 0) for e in defs) + sum(max(len(o) - 1, 0) for o in outs)


def _enumerate_bu_sequences(rows, n_vars):
    """All final costs reachable by any legal largest-or-smaller extraction order.

    Every extraction of a (>= 2)-term pattern shared by some pair of rows is
    explored, matching rows rewritten and the body appended, exactly as the
    pass does, but over every candidate instead of the tie-broken best.
    """
    results = []

    def step(rows, n_vars):
        cands = {}
        for r, s in itertools.combinations(range(len(rows)), 2):
            for orient in (1, -1):
                pat = {
                    v: sv for v, sv in rows[r].items() if rows[s].get(v) == orient * sv
                }
                if len(pat) >= 2:
                    if pat[min(pat)] == -1:
                        pat = {v: -sv for v, sv in pat.items()}
                    cands[tuple(sorted(pat.items()))] = pat
        if not cands:
            results.append(_bu_cost(rows[3:], rows[:3]) + 0)
            return
        for pat in cands.values():
            nxt = [dict(row) for row in rows]
            for row in nxt:
                if all(row.get(v) == sv for v, sv in pat.items()):
                    for v in pat:
                        del row[v]
                    row[n_vars] = 1
                elif all(row.get(v) == -sv for v, sv in pat.items()):
                    for v in pat:
                        del row[v]
                    row[n_vars] = -1
            nxt.append(dict(pat))
            step(nxt, n_vars + 1)

    step([dict(r) for r in rows], n_vars)
    return results


def test_bu_three_row_exhaustive_oracle():
    m = TernaryMatrix(
        np.array([[1, 1, 1, 0], [1, 1, 0, 1], [0, 1, 1, 0]], dtype=np.int8)
    )
    trace = []
    r = bu_cse(m, trace=trace)
    # tie between patterns (x0,x1) and (x1,x2): smallest variable tuple wins
    assert trace[0].pattern == terms((0, 1), (1, 1))
    defs, outs = cse_rows.rows(r)
    mine = _bu_cost([t for _, t in defs], outs)
    all_costs = _enumerate_bu_sequences([dict(row) for row in map(dict, (
        {0: 1, 1: 1, 2: 1}, {0: 1, 1: 1, 3: 1}, {1: 1, 2: 1},
    ))], 4)
    assert all_costs  # the enumeration explored every legal sequence
    assert mine == min(all_costs)
    assert find_counterexample(m, r) is None


@pytest.mark.parametrize("engine", [td_cse, bu_cse], ids=["td", "bu"])
def test_negative_max_extractions_refused(engine):
    m = TernaryMatrix(np.array([[1, 1, -1], [1, 1, 1]], dtype=np.int8))
    with pytest.raises(ValueError, match="max_extractions must be at least 0, got -1"):
        engine(m, max_extractions=-1)


# ---------------------------------------------------------------------------
# Equivalence checking


def test_verify_exhaustive_small(m7x6):
    assert find_counterexample(m7x6, td_cse(m7x6)) is None
    assert find_counterexample(m7x6, bu_cse(m7x6)) is None


def test_identity_outputs_always_equivalent(rng):
    m = random_ternary(5, 8, 0.3, rng)
    assert find_counterexample(m, no_cse(m)) is None


def test_corrupted_result_found_with_witness(m7x6):
    r = td_cse(m7x6)
    defs, flipped = cse_rows.rows(r)
    v, s = flipped[1][0]
    flipped[1] = ((v, -s),) + flipped[1][1:]
    bad = cse_rows.result(r.n_inputs, defs, flipped)
    w = find_counterexample(m7x6, bad)
    assert w.tolist() == [int(c == v) for c in range(6)]  # e_v, the flipped column
    got = dense(bad) @ w
    want = m7x6.matvec(w)
    assert any(int(a) != int(b) for a, b in zip(got, want))


def test_counterexample_rejects_other_shapes(m7x6):
    r = td_cse(m7x6)
    wider = TernaryMatrix(np.zeros((7, 7), dtype=np.int8))
    with pytest.raises(ValueError, match=r"result is 7x6 \(outputs x inputs\), matrix is 7x7"):
        find_counterexample(wider, r)
    taller = TernaryMatrix(np.zeros((8, 6), dtype=np.int8))
    with pytest.raises(ValueError, match="matrix is 8x6"):
        find_counterexample(taller, r)


def test_symbolic_expansion_random(rng):
    for _ in range(10):
        m = random_ternary(10, 14, 0.6, rng)
        for fn in (td_cse, bu_cse):
            assert np.array_equal(dense(fn(m)), m.entries)


def test_all_zero_row_expression(rng):
    a = random_ternary(4, 6, 0.5, rng).entries.copy()
    a[2] = 0
    m = TernaryMatrix(a)
    for fn in (td_cse, bu_cse, no_cse):
        r = fn(m)
        assert cse_rows.rows(r)[1][2] == ()
        assert find_counterexample(m, r) is None


# ---------------------------------------------------------------------------
# Text format


def test_format_cse_golden(m7x6):
    text = format_cse(td_cse(m7x6))
    assert text.splitlines()[0] == "def x6 = +x2 +x3"
    assert "out 0 = +x6" in text.splitlines()


def test_cse_round_trip(m7x6, rng):
    for m in [m7x6] + [random_ternary(6, 9, 0.5, rng) for _ in range(3)]:
        for fn in (td_cse, bu_cse, no_cse):
            r = fn(m)
            again = parse_cse(format_cse(r), n_inputs=m.cols)
            assert cse_rows.rows(again) == cse_rows.rows(r)
            inferred = parse_cse(format_cse(r))
            if len(r.ids):
                assert inferred.n_inputs == m.cols


def test_parse_cse_empty_output_row():
    r = parse_cse("out 0 = +x0\nout 1 =\n", n_inputs=2)
    assert cse_rows.rows(r)[1][1] == ()


@pytest.mark.parametrize(
    "text",
    [
        "",
        "def x2 = +x0 +x1\n",  # no out lines
        "out 0 = +x9\n",  # dangling reference
        "out 1 = +x0\n",  # rows not consecutive
        "out 0 = x0\n",  # missing sign
        "def x2 =\nout 0 = +x0\n",  # empty definition
        "out 0 = +x0\ndef x2 = +x0 +x0\n",  # def after out
        "banana\n",
    ],
)
def test_parse_cse_errors(text):
    with pytest.raises(CseFormatError):
        parse_cse(text, n_inputs=2)


@pytest.mark.parametrize(
    "text, message",
    [
        ("out 0 = +x0 -x0\n", "line 1: variable x0 repeated"),
        ("def x2 = +x0 +x1 +x0\nout 0 = +x2\n", "line 1: variable x0 repeated"),
        ("out 0 = +x\u00b2\n", "line 1: bad term"),  # superscript two: isdigit() but not int()
        ("out 0 = +x1\nout 1 = -x\u0663\n", "line 2: bad term"),  # Arabic-Indic three: int() reads 3
        ("def x\u0662 = +x0 +x1\nout 0 = +x2\n", "line 1: bad definition name"),
        ("out \u0660 = +x0\n", "line 1: bad row index"),
    ],
    ids=["repeat-out", "repeat-def", "superscript-term", "arabic-term", "arabic-def", "arabic-row"],
)
def test_parse_cse_errors_name_the_line(text, message):
    with pytest.raises(CseFormatError, match=message):
        parse_cse(text, n_inputs=2)


def test_parse_cse_forward_reference_rejected():
    with pytest.raises(CseFormatError):
        parse_cse("def x3 = +x0 +x4\ndef x4 = +x0 +x1\nout 0 = +x3\n", n_inputs=3)


@pytest.mark.parametrize(
    "n_inputs, defs, outs, message",
    [
        (0, [], [()], "n_inputs must be at least 1, got 0"),
        (3, [], [((2, 1), (0, 1))], "out 0: x0 follows x2, variables must strictly ascend"),
        (2, [(2, ())], [((2, 1),)], "def x2: empty definition"),
        (2, [(2, ((0, 1), (1, 1)))], [((0, 1),), ((3, -1),)], "out 1: reads x3, which is not an input"),
        (2, [], [((-1, 1),)], "out 0: reads x-1, which is not an input"),
    ],
    ids=["no-inputs", "descending", "empty-definition", "out-reads-undefined", "negative-variable"],
)
def test_cse_result_names_the_first_broken_rule(n_inputs, defs, outs, message):
    with pytest.raises(ValueError, match=message):
        cse_rows.result(n_inputs, defs, outs)


@pytest.mark.parametrize(
    "ids, start, var, sign",
    [([], [0, 2], [0], [1]), ([], [0, 1, 0], [0], [1]), ([2, 3], [0, 1], [0], [1]), ([], [1, 1], [0], [1])],
    ids=["short-terms", "start-falls", "rows-fewer-than-ids", "start-not-0"],
)
def test_cse_result_refuses_inconsistent_arrays(ids, start, var, sign):
    with pytest.raises(ValueError, match="term arrays have inconsistent lengths"):
        CseResult(2, ids, start, var, sign)


# Lines built mostly from fragments that pass the parser's first checks, so
# that the later ones run too; or any text.
CSE_TERM = st.sampled_from(
    ["+x0", "-x0", "+x1", "-x1", "+x2", "-x3", "+x9", "+x\u0663", "-x\u00b2", "x1", "+", "-x"]
) | st.text(max_size=3)
CSE_LINE = st.tuples(
    st.sampled_from(["out 0", "out 1", "out 2", "def x2", "def x3", "def x\u0662", "out \u0661", "out", "def"]),
    st.sampled_from(["=", "=", "=", "", "=="]),
    st.lists(CSE_TERM, max_size=4),
).map(lambda t: " ".join([t[0], t[1], *t[2]]))
CSE_TEXT = st.lists(CSE_LINE, max_size=6).map("\n".join) | st.text()


@settings(max_examples=300, deadline=None)
@given(text=CSE_TEXT, n_inputs=st.none() | st.integers(1, 4))
def test_parse_cse_parses_or_raises_its_format_error(text, n_inputs):
    try:
        parse_cse(text, n_inputs=n_inputs)
    except CseFormatError:
        pass


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 8),
    cols=st.integers(1, 10),
    zeros=st.floats(0.0, 0.9),
    seed=st.integers(0, 2**32 - 1),
    fn=st.sampled_from([td_cse, bu_cse, no_cse]),
)
def test_format_then_parse_cse_is_identity(rows, cols, zeros, seed, fn):
    r = fn(random_ternary(rows, cols, zeros, np.random.default_rng(seed)))
    text = format_cse(r)
    assert parse_cse(text, n_inputs=cols) == r
    if len(r.ids):
        assert parse_cse(text) == r


def test_expression_stats(m7x6):
    r = td_cse(m7x6)
    defs, outs = cse_rows.rows(r)
    assert r.stats.extractions == len(defs)
    n_terms = sum(len(t) for _, t in defs) + sum(len(t) for t in outs)
    assert r.stats.total_terms == n_terms


# ---------------------------------------------------------------------------
# Compressed rows of a sign matrix


def _rows_ref(signs):
    """The compressed rows of ``signs`` from the 2-D ``np.nonzero``."""
    rows, cols = np.nonzero(signs)  # row-major, so each row's columns ascend
    return np.searchsorted(rows, np.arange(len(signs) + 1)), cols, signs[rows, cols]


def _assert_rows_match(signs):
    got, want = cse._rows(signs), _rows_ref(signs)
    for g, w in zip(got, want):
        assert np.array_equal(g, w) and g.dtype == w.dtype
        assert not g.flags.writeable and g.base is None


@pytest.mark.parametrize(
    "signs",
    [
        np.zeros((3, 4), np.int8),
        np.zeros((0, 5), np.int8),
        np.array([[1, 0, -1], [0, 0, 0], [0, 0, 0], [0, -1, 0], [0, 0, 0]], np.int8),
        np.array([[1], [0], [-1], [1]], np.int8),
        random_ternary(5, 130, 0.6, np.random.default_rng(3)).entries,
        random_ternary(130, 7, 0.6, np.random.default_rng(4)).entries.T,  # as td_cse passes its variables
    ],
    ids=["all-zero", "no-rows", "zero-rows-between", "one-column", "130-columns", "transposed"],
)
def test_rows_match_the_2d_nonzero(signs):
    _assert_rows_match(signs)


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.int8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=40), elements=st.integers(-1, 1)),
       st.booleans())
def test_rows_of_drawn_sign_matrices_match_the_2d_nonzero(signs, transpose):
    _assert_rows_match(signs.T if transpose else signs)


def test_no_cse_keeps_the_rows_it_is_given(monkeypatch, m7x6):
    made = []
    rows = cse._rows
    monkeypatch.setattr(cse, "_rows", lambda signs: made.append(rows(signs)) or made[-1])
    r = no_cse(m7x6)
    assert len(made) == 1
    assert all(a is b for a, b in zip((r.term_start, r.term_var, r.term_sign), made[0]))

"""The signed sums of a CSE result: canonical term order, the rule every
row obeys, and their text form."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ternroll.cse import CseFormatError, format_cse, parse_cse

from . import cse_rows


def test_canonical_sorting():
    assert format_cse(parse_cse("out 0 = +x3 -x1\n")) == "out 0 = -x1 +x3\n"
    r = parse_cse("def x4 = +x3 -x1\nout 0 = -x4 +x0\n")
    assert cse_rows.rows(r) == ([(4, ((1, -1), (3, 1)))], [((0, 1), (4, -1))])


def test_duplicates_rejected():
    with pytest.raises(ValueError, match="out 0: x1 follows x1, variables must strictly ascend"):
        cse_rows.result(2, [], [((1, 1), (1, -1))])
    with pytest.raises(CseFormatError, match="line 1: variable x1 repeated"):
        parse_cse("out 0 = +x1 -x1\n", n_inputs=2)


def test_bad_sign_rejected():
    with pytest.raises(ValueError, match="out 0: x1 has sign 2"):
        cse_rows.result(2, [], [((1, 2),)])


def test_empty_allowed():
    r = cse_rows.result(1, [], [()])
    assert r.stats.total_terms == 0
    assert format_cse(r) == "out 0 =\n"


def test_str():
    r = cse_rows.result(8, [], [((2, 1), (3, 1)), ((0, -1), (7, 1))])
    assert format_cse(r) == "out 0 = +x2 +x3\nout 1 = -x0 +x7\n"


@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.sampled_from([-1, 1])),
        unique_by=lambda t: t[0],
        max_size=20,
    )
)
def test_canonicalization_fixpoint(pairs):
    text = " ".join(["out 0 =", *(f"{'+' if s > 0 else '-'}x{v}" for v, s in pairs)]) + "\n"
    once = parse_cse(text, n_inputs=51)
    assert cse_rows.rows(once) == ([], [tuple(sorted(pairs))])
    assert parse_cse(format_cse(once), n_inputs=51) == once

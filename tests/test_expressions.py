import pytest
from hypothesis import given
from hypothesis import strategies as st

from ternroll.expressions import Expression, expression, from_dict


def test_canonical_sorting():
    e = expression([(5, -1), (2, 1)])
    assert e.terms == ((2, 1), (5, -1))


def test_duplicates_rejected():
    with pytest.raises(ValueError):
        expression([(1, 1), (1, -1)])


def test_bad_sign_rejected():
    with pytest.raises(ValueError):
        expression([(1, 2)])


def test_empty_allowed():
    assert len(expression([])) == 0
    assert str(expression([])) == "0"


def test_str():
    assert str(expression([(2, 1), (3, 1)])) == "+x2 +x3"
    assert str(expression([(0, -1), (7, 1)])) == "-x0 +x7"


@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.sampled_from([-1, 1])),
        unique_by=lambda t: t[0],
        max_size=20,
    )
)
def test_canonicalization_fixpoint(pairs):
    once = expression(pairs)
    twice = Expression(once.terms, once.id)
    assert once == twice


def test_from_dict_round_trip():
    d = {4: -1, 1: 1}
    assert dict(from_dict(d).terms) == d

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ternroll.expressions import Expression


def test_canonical_sorting():
    e = Expression(((5, -1), (2, 1)))
    assert e.terms == ((2, 1), (5, -1))


def test_duplicates_rejected():
    with pytest.raises(ValueError):
        Expression(((1, 1), (1, -1)))


def test_bad_sign_rejected():
    with pytest.raises(ValueError):
        Expression(((1, 2),))


def test_empty_allowed():
    assert len(Expression(())) == 0
    assert str(Expression(())) == "0"


def test_str():
    assert str(Expression(((2, 1), (3, 1)))) == "+x2 +x3"
    assert str(Expression(((0, -1), (7, 1)))) == "-x0 +x7"


@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.sampled_from([-1, 1])),
        unique_by=lambda t: t[0],
        max_size=20,
    )
)
def test_canonicalization_fixpoint(pairs):
    once = Expression(tuple(pairs))
    twice = Expression(once.terms, once.id)
    assert once == twice


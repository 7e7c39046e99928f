"""Property-based checks for the algebraic laws."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from padic_dm import INF, FieldSpec, LogVal, TruncSeries, biduality_transform

K5 = FieldSpec.gauss(5, ("x",))

rationals = st.fractions(min_value=-100, max_value=100,
                         max_denominator=64)
logvals = st.one_of(st.just(INF), rationals.map(LogVal))


@given(rationals, rationals)
@settings(max_examples=80, deadline=None)
def test_logval_addition_matches_fraction(a, b):
    assert (LogVal(a) + LogVal(b)).value == a + b


@given(logvals, logvals)
@settings(max_examples=80, deadline=None)
def test_logval_order_total(a, b):
    assert (a <= b) or (b <= a)
    if a <= b and b <= a:
        assert a == b


def scalars(field):
    coeff = st.integers(min_value=-9, max_value=9)
    return st.builds(
        lambda c0, c1, c2, k: (field.scalar(c0) + field.var(0) * c1
                               + field.var(0) * field.var(0) * c2)
        * field.scalar(Fraction(5) ** k),
        coeff, coeff, coeff, st.integers(min_value=-2, max_value=2))


@given(scalars(K5), scalars(K5))
@settings(max_examples=60, deadline=None)
def test_scalar_val_laws(a, b):
    s = a + b
    assert s.val() >= min(a.val(), b.val())
    if not (a.is_zero() or b.is_zero()):
        assert (a * b).val() == a.val() + b.val()


@given(st.lists(scalars(K5), min_size=9, max_size=9))
@settings(max_examples=25, deadline=None)
def test_biduality_involution_property(coeffs):
    v = TruncSeries.from_list(coeffs)
    w = biduality_transform(biduality_transform(v, 0, 8), 0, 8)
    assert all((w.coeff(i) - v.coeff(i)).is_zero() for i in range(9))

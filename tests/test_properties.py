"""Property-based checks for the algebraic laws."""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from padic_dm import (INF, DiffModule, ExactDomain, FieldSpec, LogVal,
                      PrecisionCtx, TruncSeries, biduality_transform,
                      decompose, direct_sum, dual, linalg as la, profile)

from conftest import nilpotent_shear_pair, uniformizer
from test_acceptance import GAUSS, LAURENT, block_corpus

K5 = FieldSpec.gauss(5, ("x",))
BLOCK_FIELDS = [K5, FieldSpec.gauss(5, ("x", "y")), FieldSpec.laurent("z")]

rationals = st.fractions(min_value=-100, max_value=100,
                         max_denominator=64)
logvals = st.one_of(st.just(INF), rationals.map(LogVal))


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


def shears(draw, field, n):
    """A product of up to 3 shears I + c pi^e x E_it (det 1), x the first
    variable, c in -3..3, e in -1..1: pi^-1 makes the d(W) term of the
    gauge transform as large as the blocks."""
    dom, pi = ExactDomain(field), uniformizer(field)
    w = la.identity(dom, n)
    idx = st.integers(0, n - 1)
    for i, t, c, e in draw(st.lists(st.tuples(idx, idx, st.integers(-3, 3),
                                              st.integers(-1, 1)),
                                    max_size=3)):
        if i != t:
            shear = la.identity(dom, n)
            shear[i][t] = c * pi ** e * field.var(0)
            w = la.mat_mul(w, shear)
    return w


@st.composite
def gauged_modules(draw, field=None):
    """(m, w): a direct sum of 1 to 3 rank-1 blocks [pi^k u], u in 1..3,
    one constant per derivation, gauge transformed by ``shears``; and
    another product of ``shears`` w.  The field is drawn unless given."""
    if field is None:
        field = draw(st.sampled_from(BLOCK_FIELDS))
    block = st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3)),
                     min_size=field.nderiv, max_size=field.nderiv)
    blocks = draw(st.lists(block, min_size=1, max_size=3))
    pi, dom = uniformizer(field), ExactDomain(field)
    m = reduce(direct_sum, [DiffModule(dom, 1, [[[pi ** k * u]] for k, u in b])
                            for b in blocks])
    n = len(blocks)
    return m.change_basis(shears(draw, field, n)), shears(draw, field, n)


@given(gauged_modules())
@settings(max_examples=20, deadline=None)
def test_profile_is_gauge_invariant(case):
    m, w = case
    gauged = m.change_basis(w)
    for j in m.derivations:
        assert profile(gauged, j) == profile(m, j)


@given(gauged_modules())
@settings(max_examples=20, deadline=None)
def test_profile_is_dual_invariant(case):
    m, _w = case
    for j in m.derivations:
        assert profile(dual(m), j) == profile(m, j)


@st.composite
def module_pairs(draw):
    field = draw(st.sampled_from(BLOCK_FIELDS))
    return draw(gauged_modules(field))[0], draw(gauged_modules(field))[0]


@given(module_pairs())
@example(nilpotent_shear_pair(BLOCK_FIELDS[1]))
@settings(max_examples=20, deadline=None)
def test_profile_is_additive_on_direct_sums(case):
    a, b = case
    for j in a.derivations:
        assert profile(direct_sum(a, b), j) == \
            profile(a, j).union(profile(b, j))


@pytest.mark.parametrize("field", [GAUSS, LAURENT], ids=["gauss", "laurent"])
def test_decompose_keys_do_not_depend_on_precision(field):
    # N vs 2N and d vs 2d give the same components on block modules
    ctxs = [PrecisionCtx(Fraction(10), d=48), PrecisionCtx(Fraction(20), d=48),
            PrecisionCtx(Fraction(10), d=96)]
    for m, _expected in block_corpus(field)[:8]:
        dims = [sorted((c.key, c.dim) for c in decompose(m, 0, ctx).components)
                for ctx in ctxs]
        assert dims[1] == dims[0] and dims[2] == dims[0]

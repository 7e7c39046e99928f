"""Exact scalar arithmetic against a reference that always takes the long
route: full cross products, and every gcd through sympy."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from padic_dm import FieldSpec, polys as P
from padic_dm.scalarfield import Scalar

from conftest import schoolbook

FIELDS = [FieldSpec.laurent("z"), FieldSpec.gauss(5, ("x",)),
          FieldSpec.gauss(5, ("x", "y"))]


def ref_reduce(num, den, nvars):
    """Canonical form with every gcd taken by sympy."""
    if not num:
        return {}, P.p_const(nvars, 1)
    if P.p_is_const(den):
        c = next(iter(den.values()))
        return P.p_scale(num, 1 / c), P.p_const(nvars, 1)
    g = P.p_gcd(num, den, nvars)
    if not P.p_is_const(g):
        num = P.p_divexact(num, g, nvars)
        den = P.p_divexact(den, g, nvars)
        if P.p_is_const(den):
            return ref_reduce(num, den, nvars)
    c = P.p_content(den)
    if den[max(den, key=P.p_sort_key)] < 0:
        c = -c
    return P.p_scale(num, 1 / c), P.p_scale(den, 1 / c)


def ref_add(a, b, nvars):
    num = P.p_add(schoolbook(a[0], b[1]), schoolbook(b[0], a[1]))
    return ref_reduce(num, schoolbook(a[1], b[1]), nvars)


def ref_mul(a, b, nvars):
    return ref_reduce(schoolbook(a[0], b[0]), schoolbook(a[1], b[1]), nvars)


def ref_derive(a, j, nvars):
    num = P.p_sub(schoolbook(P.p_derive(a[0], j), a[1]),
                  schoolbook(a[0], P.p_derive(a[1], j)))
    return ref_reduce(num, schoolbook(a[1], a[1]), nvars)


coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=6).filter(bool)


@st.composite
def polys(draw, nvars, kind):
    """A nonzero polynomial: a constant, a single term or a general one,
    times a random monomial so that monomial gcds are often nontrivial."""
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    if kind == "const":
        return {(0,) * nvars: draw(coeffs)}
    if kind == "mono":
        return {draw(exps): draw(coeffs)}
    terms = draw(st.dictionaries(exps, coeffs, min_size=2, max_size=4))
    return P.p_mul(terms, {draw(exps): Fraction(1)})


@st.composite
def operand_pairs(draw):
    """(field, a, b): numerators zero, single-term or general; the
    denominators constant, single-term, general, or one denominator shared
    by both (with a + b then sharing a factor with it)."""
    field = draw(st.sampled_from(FIELDS))
    n = field.nvars
    kinds = st.sampled_from(["zero", "const", "mono", "general"])

    def numerator():
        kind = draw(kinds)
        return {} if kind == "zero" else draw(polys(n, kind))

    den_kind = draw(st.sampled_from(["const", "mono", "general", "shared"]))
    if den_kind == "shared":
        f = draw(polys(n, draw(st.sampled_from(["mono", "general"]))))
        den = P.p_mul(f, draw(polys(n, "general")))
        a_num = numerator()
        b_num = P.p_sub(P.p_mul(f, draw(polys(n, "general"))), a_num)
        return field, Scalar(field, a_num, den), Scalar(field, b_num, den)
    a = Scalar(field, numerator(), draw(polys(n, den_kind)))
    b_den_kind = draw(st.sampled_from(["const", "mono", "general"]))
    b = Scalar(field, numerator(), draw(polys(n, b_den_kind)))
    return field, a, b


def same(x, ref):
    return (x.num, x.den) == ref


@given(operand_pairs())
@settings(max_examples=300, deadline=None)
@example((FIELDS[2], Scalar(FIELDS[2], {(1, 2): Fraction(3)}),
          Scalar(FIELDS[2], {(0, 0): Fraction(1)},
                 {(2, 1): Fraction(1), (1, 3): Fraction(2)})))
def test_fast_paths_match_sympy_reference(args):
    field, a, b = args
    n = field.nvars
    assert same(a, ref_reduce(a.num, a.den, n))
    ra, rb = (a.num, a.den), (b.num, b.den)
    assert same(a + b, ref_add(ra, rb, n))
    assert same(a - b, ref_add(ra, (P.p_neg(b.num), b.den), n))
    assert same(a * b, ref_mul(ra, rb, n))
    if b:
        assert same(a / b, ref_mul(ra, (b.den, b.num), n))
    for j in range(field.nderiv):
        assert same(a.derive(j), ref_derive(ra, j, n))


@st.composite
def univariate_pairs(draw):
    def poly():
        lo = draw(st.integers(0, 4))
        gap = draw(st.integers(1, 3))
        cs = draw(st.lists(coeffs, min_size=1, max_size=12))
        return {(lo + gap * i,): c for i, c in enumerate(cs)}
    return poly(), poly()


@given(univariate_pairs())
@settings(max_examples=200, deadline=None)
def test_p_mul_matches_schoolbook(ab):
    a, b = ab
    assert P.p_mul(a, b) == schoolbook(a, b)


@pytest.mark.parametrize("na, nb, packed", [(8, 8, True), (2, 3, False)])
def test_p_mul_selects_kronecker_by_pair_count(na, nb, packed):
    a = {(i,): Fraction(i + 1, 3) for i in range(na)}
    b = {(i,): Fraction(-1, i + 2) for i in range(nb)}
    with mock.patch.object(P, "_kronecker", wraps=P._kronecker) as spy:
        assert P.p_mul(a, b) == schoolbook(a, b)
    assert spy.called == packed

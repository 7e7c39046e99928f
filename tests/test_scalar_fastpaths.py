"""Exact scalar arithmetic against a reference that always takes the long
route: full cross products, and every gcd through sympy (independent of
``polys.p_gcd``); the canonical form and ``int`` coefficients of every
scalar the library builds; and ``polys`` products, gcds and exact quotients
on their own."""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from padic_dm import (ApproxScalar, FieldSpec, PrecisionCtx, parse_scalar,
                      polys as P)
from padic_dm.scalarfield import Scalar

from conftest import schoolbook

FIELDS = [FieldSpec.laurent("z"), FieldSpec.gauss(5, ("x",)),
          FieldSpec.gauss(5, ("x", "y"))]


def sympy_cofactors(num, den, nvars):
    """num/g and den/g for g = gcd(num, den), all computed by sympy."""
    rings = pytest.importorskip("sympy.polys.rings")
    from sympy.polys.domains import QQ
    R = rings.ring([f"v{i}" for i in range(nvars)], QQ)[0]

    def to_sympy(a):
        return R.from_dict({m: QQ(c) for m, c in a.items()})

    _, cn, cd = to_sympy(num).cofactors(to_sympy(den))
    return tuple({tuple(m): Fraction(int(c.numerator), int(c.denominator))
                  for m, c in e.items()} for e in (cn, cd))


def ref_reduce(num, den, nvars):
    """Canonical form with every gcd taken by sympy: its rational cofactors
    divided by their joint rational content, negated when den's leading
    coefficient is negative."""
    if not num:
        return {}, P.p_const(nvars, 1)
    num, den = sympy_cofactors(num, den, nvars)
    qs = [*num.values(), *den.values()]
    c = Fraction(math.gcd(*[q.numerator for q in qs]),
                 math.lcm(*[q.denominator for q in qs]))
    if den[max(den, key=P.p_sort_key)] < 0:
        c = -c
    return tuple({m: int(q / c) for m, q in a.items()} for a in (num, den))


def ref_add(a, b, nvars):
    num = P.p_add(schoolbook(a[0], b[1]), schoolbook(b[0], a[1]))
    return ref_reduce(num, schoolbook(a[1], b[1]), nvars)


def ref_mul(a, b, nvars):
    return ref_reduce(schoolbook(a[0], b[0]), schoolbook(a[1], b[1]), nvars)


def ref_derive(a, j, nvars):
    num = P.p_sub(schoolbook(P.p_derive(a[0], j), a[1]),
                  schoolbook(a[0], P.p_derive(a[1], j)))
    return ref_reduce(num, schoolbook(a[1], a[1]), nvars)


coeffs = st.integers(-20, 20).filter(bool)


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
    return P.p_mul(terms, {draw(exps): 1})


@st.composite
def operand_pairs(draw):
    """(field, a, b): numerators zero, single-term or general; the
    denominators constant, single-term, general, or one denominator shared
    by both (with a + b then sharing a factor with it).  Coefficients are
    nonzero ints in -20..20, so constant denominators other than +-1 and
    negative leading coefficients are drawn."""
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
@example((FIELDS[2], Scalar(FIELDS[2], {(1, 2): 3}),
          Scalar(FIELDS[2], {(0, 0): 1}, {(2, 1): 1, (1, 3): 2})))
@example((FIELDS[0], Scalar(FIELDS[0], {(1,): 4}, {(0,): -6}),
          Scalar(FIELDS[0], {(0,): 3}, {(2,): -2, (0,): 4})))
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


def assert_canonical(x):
    """int coefficients; gcd(num, den) = 1 over Q; joint content 1; den's
    leading coefficient positive; zero is {} over 1."""
    num, den = x.num, x.den
    assert all(type(c) is int and c for c in (*num.values(), *den.values()))
    assert den and math.gcd(*num.values(), *den.values()) == 1
    assert den[max(den, key=P.p_sort_key)] > 0
    if num:
        assert P.p_is_const(P.p_gcd(num, den)[0])
    else:
        assert den == P.p_const(x.field.nvars, 1)


@st.composite
def truncations(draw, field):
    """An ApproxScalar of int digits (a Laurent one over an int den)."""
    mono = st.tuples(*[st.integers(0, 4)] * field.nvars)
    digits = draw(st.dictionaries(mono, st.integers(-10 ** 6, 10 ** 6),
                                  max_size=5))
    shift = draw(st.integers(-3, 3))
    den = 1 if field.kind == "gauss" else draw(st.integers(1, 50))
    return ApproxScalar(field, PrecisionCtx(Fraction(10), d=4), shift, digits,
                        shift + draw(st.integers(0, 8)), den)


@given(operand_pairs(), st.fractions(max_denominator=10 ** 6), st.data())
@settings(max_examples=200, deadline=None)
def test_every_scalar_is_canonical_with_int_coefficients(args, q, data):
    field, a, b = args
    parsed = parse_scalar(str(a), field)
    assert parsed == a
    made = [a, b, a + b, a - b, -a, a * b, field.scalar(q), field.scalar(7),
            parsed, data.draw(truncations(field)).lift()]
    made += [a.derive(j) for j in range(field.nderiv)]
    if b:
        made.append(a / b)
    for x in made:
        assert_canonical(x)


@given(univariate_pairs())
@settings(max_examples=200, deadline=None)
def test_p_mul_matches_schoolbook(ab):
    a, b = ab
    assert P.p_mul(a, b) == schoolbook(a, b)


@pytest.mark.parametrize("na, nb, packed", [(16, 12, True), (19, 10, False),
                                             (2, 3, False)])
def test_p_mul_selects_kronecker_by_pair_count(na, nb, packed):
    a = {(i,): i + 1 for i in range(na)}
    b = {(i,): -3 * i - 2 for i in range(nb)}
    with mock.patch.object(P, "_kronecker", wraps=P._kronecker) as spy:
        assert P.p_mul(a, b) == schoolbook(a, b)
    assert spy.called == packed


heights = st.integers(-10**18, 10**18).filter(bool)


@st.composite
def gcd_cases(draw):
    """(nvars, g, u, v): u and v often equal; univariate factors of degree
    up to 32 (products up to 64), bivariate ones up to 4 in each variable."""
    n = draw(st.sampled_from([1, 2]))
    exps = (st.tuples(st.integers(0, 32)) if n == 1
            else st.tuples(st.integers(0, 4), st.integers(0, 4)))
    coeff = st.one_of(coeffs, heights)

    def poly():
        return draw(st.dictionaries(exps, coeff, min_size=1, max_size=6))

    g, u = poly(), poly()
    return n, g, u, u if draw(st.booleans()) else poly()


def dense(n, top):
    return {(i,): (-1) ** i * (i + 1) ** 3 * (i % 7 + 1)
            for i in range(n)} | {(n,): top}


def power(a, e):
    out = {(0,) * len(next(iter(a))): 1}
    for _ in range(e):
        out = P.p_mul(out, a)
    return out


X1, ONE1 = {(1,): 1}, {(0,): 1}


@given(gcd_cases())
@settings(max_examples=200, deadline=None)
@example((1, dense(32, 10**12), dense(32, 3), dense(31, -1)))
@example((1, dense(20, 7), dense(44, 1), dense(44, 1)))
# (x - 1)^8 * (1 + x + x^2 + x^3)^8 = (x^4 - 1)^8: the quotient's
# coefficients are ~100 times those of the product
@example((1, power(P.p_sub(X1, ONE1), 8),
          power({(i,): 1 for i in range(4)}, 8), ONE1))
def test_gcd_and_divexact_on_products(case):
    n, g, u, v = case
    a, b = P.p_mul(g, u), P.p_mul(g, v)
    assert P.p_divexact(a, g) == u and P.p_divexact(b, g) == v
    r, qa, qb = P.p_gcd(a, b)
    assert (qa, qb) == (P.p_divexact(a, r), P.p_divexact(b, r))
    assert P.p_mul(r, qa) == a and P.p_mul(r, qb) == b
    assert P.p_mul(g, P.p_divexact(r, g)) == r
    assert P.p_is_const(P.p_gcd(qa, qb)[0])
    assert P.p_is_const(P.p_divexact(a, P.p_gcd(a, a)[0]))
    if not P.p_is_const(g):
        with pytest.raises(ArithmeticError):
            P.p_divexact(P.p_add(a, P.p_const(n, 1)), g)


def test_gcd_rejects_unlucky_evaluations():
    """2^s*x - y and x - 2^j are coprime, but at y = 2^(s+j) the first is
    2^s*(x - 2^j): the gcd one variable down is then x - 2^j, which must
    be rejected because it does not divide 2^s*x - y."""
    for s in range(1, 7):
        for j in range(1, 31):
            a = {(1, 0): 2 ** s, (0, 1): -1}
            b = {(1, 0): 1, (0, 0): -2 ** j}
            assert P.p_is_const(P.p_gcd(a, b)[0])


def test_divexact_rejects_divisors_at_the_evaluation_point():
    """x - c divides no x + 1 with c > 1, though at x = c +- 1 it is +-1,
    which divides every integer."""
    for c in range(2, 1 << 10):
        with pytest.raises(ArithmeticError):
            P.p_divexact(P.p_add(X1, ONE1), P.p_sub(X1, P.p_const(1, c)))

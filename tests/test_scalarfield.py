"""Scalar field layer: valuations, derivations, constants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padic_dm import (FieldSpec, LogVal, INF, ApproxDomain, FieldMismatch,
                      PrecisionCtx, TwistedPoly, cyclic_data,
                      decompose, pi_norm, polys as P, profile,
                      spectral_radius_bruteforce, taylor_map)

from conftest import block_module, random_scalar


def test_val_examples(gauss5):
    K = gauss5
    x = K.var(0)
    assert K.one().val() == LogVal(0)
    assert (K.scalar(5) * x * x + 25).val() == LogVal(1)
    assert (x / 5).val() == LogVal(-1)
    assert K.zero().val() == INF


def test_val_multiplicative(gauss5):
    rng = random.Random(1)
    for _ in range(200):
        a = random_scalar(gauss5, rng, deg=2)
        b = random_scalar(gauss5, rng, deg=2)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).val() == a.val() + b.val()


def test_ultrametric(gauss5):
    rng = random.Random(2)
    for _ in range(200):
        a = random_scalar(gauss5, rng, deg=2) * gauss5.scalar(5) ** rng.randint(-2, 2)
        b = random_scalar(gauss5, rng, deg=2)
        s = a + b
        assert s.val() >= min(a.val(), b.val())
        if a.val() != b.val():
            assert s.val() == min(a.val(), b.val())


def test_derive_examples(gauss5, gauss5xy):
    K = gauss5
    x = K.var(0)
    assert (x * x).derive(0) == 2 * x
    assert (K.one() / x).derive(0) == -(K.one() / (x * x))
    K2 = gauss5xy
    assert (K2.var(0) * K2.var(1)).derive(1) == K2.var(0)


def test_leibniz(gauss5):
    rng = random.Random(27)
    for _ in range(40):
        a = random_scalar(gauss5, rng, deg=2)
        b = random_scalar(gauss5, rng, deg=2) + gauss5.one()
        assert (a * b).derive(0) == a.derive(0) * b + a * b.derive(0)


def test_derivations_commute(gauss5xy):
    rng = random.Random(3)
    x, y = gauss5xy.var(0), gauss5xy.var(1)
    for _ in range(30):
        num = random_scalar(gauss5xy, rng, deg=1) + y * rng.randint(-5, 5)
        den = gauss5xy.one() + x * y * rng.randint(-3, 3)
        c = num / den
        assert c.derive(0).derive(1) == c.derive(1).derive(0)


def test_taylor_coeff_basics(gauss5):
    K = gauss5
    x = K.var(0)
    assert taylor_map(x, 0, 1).coeff(1) == K.one()
    assert taylor_map(x * x, 0, 2).coeff(2) == K.one()


def test_taylor_isometry_bound(gauss5):
    # |d^i(c)/i!| <= |c| / r(K,d)^i, i.e. lv + i*lv_rK >= lv(c)
    K = gauss5
    c = K.one() / (K.var(0) - 5)
    lv_rk = K.lv_rK(0)
    base = c.val()
    for i in range(31):
        tc = taylor_map(c, 0, i).coeff(i)
        assert tc.val() + lv_rk * i >= base
        if i == 0:
            assert tc.val() == base


def test_field_constants(gauss5, laurent):
    assert gauss5.lv_omega == LogVal(Fraction(1, 4))
    assert gauss5.lv_dsp(0) == LogVal(0)
    assert gauss5.lv_rK(0) == LogVal(Fraction(1, 4))
    assert gauss5.residue_char == 5
    assert laurent.lv_omega == LogVal(0)
    assert laurent.lv_dsp(0) == LogVal(-1)
    assert laurent.lv_rK(0) == LogVal(1)
    assert laurent.residue_char == 0


def test_laurent_val(laurent):
    z = laurent.var(0)
    assert (z * z / (z + z ** 3)).val() == LogVal(1)
    assert (laurent.one() / z).val() == LogVal(-1)


def test_canonical_form(gauss5):
    K = gauss5
    x = K.var(0)
    a = (x * x - 1) / (x - 1)
    assert a == x + 1
    # the common factor and the joint integer content are divided out
    b = (x + 1) / (K.scalar(2) * x + 2)
    assert b == K.one() / 2
    assert (b.num, b.den) == ({(0,): 1}, {(0,): 2})


def test_field_mismatch(gauss5, laurent):
    with pytest.raises(FieldMismatch):
        gauss5.one() + laurent.one()


def test_prime_validation():
    with pytest.raises(ValueError):
        FieldSpec.gauss(6, ("x",))
    with pytest.raises(ValueError):
        FieldSpec.gauss(5, ("x", "y", "w"))


def test_logval_arithmetic():
    a, b = LogVal(Fraction(1, 2)), LogVal(3)
    assert a + b == LogVal(Fraction(7, 2))
    assert INF + a is INF and a + INF is INF
    assert INF / 3 is INF and INF - a is INF
    for bad in (lambda: a - INF, lambda: INF - INF, lambda: -INF):
        with pytest.raises(ValueError):
            bad()
    assert a < INF and INF > a and not INF < a and not a > INF
    assert a <= INF and INF >= a and not INF <= a and not a >= INF
    assert 3 < INF and INF > 3
    assert min(a, INF) == a and min(INF, a) == a
    assert INF == INF and INF != a and a != INF
    assert str(INF) == "inf"
    assert {INF: 1}[INF] == 1


@pytest.mark.parametrize("field, ks", [(FieldSpec.gauss(5), [-1, 0]),
                                       (FieldSpec.laurent(), [-3, 0])],
                         ids=["gauss", "laurent"])
def test_every_lv_is_exact(field, ks):
    # an int lv would turn k-th roots (lv / k) into floats
    def exact(v):
        return v is INF or type(v) is Fraction

    ctx = PrecisionCtx(Fraction(10), d=48, max_iter=80)
    adom = ApproxDomain(field, ctx, 10)
    m, _ = block_module(field, random.Random(3), ks)
    ma = m.map_domain(adom)
    p, _ = cyclic_data(m, 0)
    lv_t = field.lv_rK(0)
    lvs = [x.val() for x in (field.zero(), field.one(), field.var(0) / 7)]
    lvs += [x.val() for x in (adom.zero(), adom.one(), adom.variable(0))]
    lvs += [pi_norm(q, lv_t) for q in
            (p, p.map_domain(adom), TwistedPoly.zero(adom, 0))]
    for est in (spectral_radius_bruteforce(m, 0, 8),
                spectral_radius_bruteforce(ma, 0, 8)):
        lvs += [est.lv, est.spread]
    lvs += [lv for lv, _ in profile(m, 0).entries]
    dec = decompose(m, 0, ctx)
    assert len(dec.components) == 2
    lvs += list(dec.certificate.residual_lv)
    assert all(exact(v) for v in lvs), [type(v) for v in lvs]
    assert field.zero().val() is INF and lvs[3] == Fraction(10)


PI_FIELDS = (FieldSpec.gauss(5, ("x",)), FieldSpec.gauss(3, ("x", "y")),
             FieldSpec.laurent("z"))


@st.composite
def int_polys(draw, field):
    """A nonzero-coefficient int polynomial of the field: exponents up to 9,
    coefficients from units to multiples of p^6 and ~100-bit ints."""
    mono = st.tuples(*[st.integers(0, 9)] * field.nvars)
    unit = st.integers(-10 ** 4, 10 ** 4).filter(bool)
    coeff = st.one_of(unit, st.integers(-2 ** 100, 2 ** 100).filter(bool),
                      st.builds(lambda e, c: (field.p or 2) ** e * c,
                                st.integers(0, 6), unit))
    return draw(st.dictionaries(mono, coeff, max_size=8))


@st.composite
def pi_cases(draw, fields=PI_FIELDS):
    field = draw(st.sampled_from(fields))
    return (field, draw(int_polys(field)), draw(int_polys(field)),
            draw(st.integers(-1, 12)), draw(st.none() | st.integers(0, 12)))


@given(pi_cases())
@settings(max_examples=200, deadline=None)
def test_pi_trunc_is_a_ring_map(case):
    """Truncation below pi^k (and at degree d) commutes with products: the
    property that the bounded oracle's trimmed steps rely on."""
    field, a, b, k, d = case

    def t(x):
        return field.pi_trunc(x, k, d)

    assert t(P.p_mul(a, b)) == t(P.p_mul(t(a), t(b)))
    assert t(P.p_add(a, b)) == t(P.p_add(t(a), t(b)))
    assert all(c for c in t(a).values())


@given(pi_cases(PI_FIELDS[:2]), st.integers(0, 1))
@settings(max_examples=150, deadline=None)
def test_gauss_pi_trunc_commutes_with_derivation(case, j):
    field, a, _b, k, _d = case
    j %= field.nvars

    def t(x):
        return field.pi_trunc(x, k)

    assert t(P.p_derive(a, j)) == t(P.p_derive(t(a), j))


@given(pi_cases(), st.integers(-3, 6))
@settings(max_examples=150, deadline=None)
def test_pi_shift_moves_the_valuation(case, k):
    """b = pi^3 a, so pi^k divides b for every k >= -3."""
    field, a, _b, _k, _d = case
    b = field.pi_shift(a, 3)
    assert field.pi_shift(field.pi_shift(b, k), -k) == b
    if a:
        assert field.poly_val(field.pi_shift(b, k)) == field.poly_val(b) + k

"""Twisted polynomial ring laws, division, norms, polygons."""

import random
from fractions import Fraction

import pytest

from padic_dm import (INF, ApproxDomain, ExactDomain, FieldMismatch, LogVal,
                      NotMonic, PrecisionCtx, TwistedPoly,
                      ZeroPolynomial, check_condition_c, divmod_left,
                      divmod_right, monicize, mul, mul_relation,
                      newton_polygon, parse_operator, pi_norm)

from conftest import random_twisted, uniformizer


def T(field, k=1):
    return TwistedPoly.t_power(ExactDomain(field), 0, k)


def test_defining_relation(gauss5):
    K = gauss5
    x = K.var(0)
    c = TwistedPoly.constant(ExactDomain(K), 0, x)
    prod = mul(T(K), c)
    assert prod.coeff(0) == K.one()       # the derivative of x
    assert prod.coeff(1) == x


def test_mixed_operands_are_a_field_mismatch(gauss5, gauss5xy, laurent):
    # operators for different derivations, or over different fields, do
    # not combine: a typed error, not a bare ValueError
    dom = ExactDomain(gauss5xy)
    tx = TwistedPoly.t_power(dom, 0, 1)
    ty = TwistedPoly.t_power(dom, 1, 1)
    with pytest.raises(FieldMismatch, match="different derivations"):
        tx + ty
    with pytest.raises(FieldMismatch, match="different derivations"):
        mul(tx, ty)
    with pytest.raises(FieldMismatch, match="different fields"):
        T(gauss5) - T(laurent)


def test_mul_example(gauss5):
    K = gauss5
    x = K.var(0)
    dom = ExactDomain(K)
    p = TwistedPoly.from_list(dom, 0, [-x, 1])
    sq = mul(p, p)
    assert sq == TwistedPoly.from_list(dom, 0, [x * x - 1, -2 * x, 1])


def test_mul_unit(gauss5):
    rng = random.Random(4)
    p = random_twisted(gauss5, rng)
    one = TwistedPoly.one(ExactDomain(gauss5), 0)
    assert mul(p, one) == p
    assert mul(one, p) == p


def test_routes_agree(gauss5):
    rng = random.Random(5)
    for _ in range(40):
        p = random_twisted(gauss5, rng, max_deg=4, height=8)
        q = random_twisted(gauss5, rng, max_deg=4, height=8)
        assert mul(p, q) == mul_relation(p, q)


@pytest.mark.parametrize("name", ["gauss", "laurent"])
def test_routes_agree_over_truncations(name, gauss5, laurent):
    # degree >= 3 on the left gives binomials comb(h, j) > 1 next to the
    # ones twisted.mul skips; 1/pi^2 puts negative valuations in play
    field = gauss5 if name == "gauss" else laurent
    dom = ApproxDomain(field, PrecisionCtx(Fraction(10), d=16), 20)
    rng = random.Random(11)
    small = field.one() / uniformizer(field) ** 2
    for _ in range(10):
        p = random_twisted(field, rng, max_deg=4, height=8)
        while p.degree < 3:
            p = random_twisted(field, rng, max_deg=4, height=8)
        p = p.scale_left(small)
        q = random_twisted(field, rng, max_deg=3, height=8)
        pa, qa = p.map_domain(dom), q.map_domain(dom)
        assert mul(pa, qa) == mul_relation(pa, qa)
        assert mul(pa, qa) == mul(p, q).map_domain(dom)


@pytest.mark.parametrize("name", ["gauss", "laurent"])
def test_difference_is_the_sum_of_the_negation(name, gauss5, laurent):
    """p - q has the coefficients of p + (-q), in their representation,
    over exact scalars and over truncations (1/pi^2 puts negative
    valuations, so different shifts, in play)."""
    field = gauss5 if name == "gauss" else laurent
    rng = random.Random(12)
    small = field.one() / uniformizer(field) ** 2
    for _ in range(10):
        p = random_twisted(field, rng, max_deg=4, height=8)
        q = random_twisted(field, rng, max_deg=4, height=8).scale_left(small)
        for dom in (ExactDomain(field),
                    ApproxDomain(field, PrecisionCtx(Fraction(10), d=6), 8)):
            pd, qd = p.map_domain(dom), q.map_domain(dom)
            for a, b in ((pd, qd), (qd, pd), (pd, pd)):
                got, want = a - b, a + (-b)
                assert len(got.coeffs) == len(want.coeffs)
                for c, w in zip(got.coeffs, want.coeffs):
                    if dom.is_exact:
                        assert (c.num, c.den) == (w.num, w.den)
                    else:
                        assert (c.shift, c.coeffs, c.err_lv, c.den) == \
                            (w.shift, w.coeffs, w.err_lv, w.den)


def test_associativity(gauss5):
    rng = random.Random(6)
    for _ in range(20):
        p = random_twisted(gauss5, rng, max_deg=3, height=5)
        q = random_twisted(gauss5, rng, max_deg=3, height=5)
        r = random_twisted(gauss5, rng, max_deg=3, height=5)
        assert mul(mul(p, q), r) == mul(p, mul(q, r))


def test_divmod_examples(gauss5):
    K = gauss5
    dom = ExactDomain(K)
    x = K.var(0)
    t2 = T(K, 2)
    d, r = divmod_right(t2, T(K))
    assert d == T(K) and r.is_zero()
    p = TwistedPoly.from_list(dom, 0, [x * x - 1, -2 * x, 1])
    d, r = divmod_right(p, TwistedPoly.from_list(dom, 0, [-x, 1]))
    assert d == TwistedPoly.from_list(dom, 0, [-x, 1]) and r.is_zero()
    d, r = divmod_right(T(K), t2)
    assert d.is_zero() and r == T(K)


def test_division_reconstructs(gauss5):
    rng = random.Random(7)
    for _ in range(40):
        p = random_twisted(gauss5, rng, max_deg=5, height=6)
        q = random_twisted(gauss5, rng, max_deg=3, height=6)
        if q.is_zero():
            continue
        d, r = divmod_right(p, q)
        assert mul(d, q) + r == p
        assert r.is_zero() or r.degree < q.degree
        d2, r2 = divmod_left(p, q)
        assert mul(q, d2) + r2 == p
        assert r2.is_zero() or r2.degree < q.degree


def test_division_by_zero(gauss5):
    rng = random.Random(8)
    p = random_twisted(gauss5, rng)
    with pytest.raises(ZeroDivisionError):
        divmod_right(p, TwistedPoly.zero(ExactDomain(gauss5), 0))


@pytest.mark.parametrize("name, q_text", [
    ("gauss", "(1/5)*T + 1 + x"), ("laurent", "(1/z)*T + 1 + z")])
@pytest.mark.parametrize("divide", [divmod_right, divmod_left])
def test_approximate_division_keeps_the_quotient_precision(name, q_text,
                                                           divide, gauss5,
                                                           laurent):
    # each quotient coefficient is written once, so it keeps the err_lv of
    # lead(R) / lead(q): a sum with a zero of the domain would clamp it to
    # the domain's error, 10
    field = gauss5 if name == "gauss" else laurent
    v = field.variables[0]
    dom = ApproxDomain(field, PrecisionCtx(Fraction(10), d=16), 10)
    p = parse_operator(f"T^3 + {v}*T^2 + T + {v}", field).map_domain(dom)
    q = parse_operator(q_text, field).map_domain(dom)
    d, r = divide(p, q)
    back = mul(d, q) if divide is divmod_right else mul(q, d)
    assert (p - (back + r)).is_zero()
    assert r.degree < q.degree
    top = p.leading() * q.leading().inverse()
    assert d.leading().err_lv == top.err_lv == 11


def test_monicize(gauss5):
    K = gauss5
    dom = ExactDomain(K)
    x = K.var(0)
    c = TwistedPoly.from_list(dom, 0, [0, x])
    assert monicize(c) == T(K)
    p = TwistedPoly.from_list(dom, 0, [0, x, 5])
    assert monicize(p) == TwistedPoly.from_list(dom, 0, [0, x / 5, 1])
    q = TwistedPoly.from_list(dom, 0, [1, 1])
    assert monicize(q) == q
    with pytest.raises(ZeroPolynomial):
        monicize(TwistedPoly.zero(dom, 0))


def test_pi_norm_examples(gauss5):
    K = gauss5
    dom = ExactDomain(K)
    lv_t = LogVal(Fraction(1, 4))
    assert pi_norm(TwistedPoly.zero(dom, 0), lv_t) is INF
    assert pi_norm(T(K), lv_t) == LogVal(Fraction(-1, 4))
    c = K.var(0) / 5
    assert pi_norm(TwistedPoly.constant(dom, 0, c), lv_t) == c.val()


def test_pi_norm_submultiplicative(gauss5):
    rng = random.Random(9)
    for lv_t in map(LogVal, (Fraction(1, 4), Fraction(1, 2), Fraction(1))):
        for _ in range(25):
            p = random_twisted(gauss5, rng, max_deg=4, height=6)
            q = random_twisted(gauss5, rng, max_deg=4, height=6)
            if p.is_zero() or q.is_zero():
                continue
            assert pi_norm(mul(p, q), lv_t) >= pi_norm(p, lv_t) + pi_norm(q, lv_t)


def test_weight_inequality_grid(gauss5):
    # pi_i pi_j / (r^h pi_0 pi_k) <= 1 for k >= j, i = h+k-j, in log scale
    lv_rk = gauss5.lv_rK(0)
    for lv_t in (lv_rk, LogVal(Fraction(1, 2)), LogVal(1)):
        for h in range(8):
            for k in range(8):
                for j in range(k + 1):
                    i = h + k - j
                    lhs = lv_t * i + lv_t * j - (lv_rk * h + lv_t * k)
                    assert lhs >= LogVal(0)


def test_condition_c(gauss5):
    lv_rk = gauss5.lv_rK(0)
    geo = [LogVal(Fraction(i, 4)) for i in range(8)]
    assert check_condition_c(geo, lv_rk)
    bad_ratio = [LogVal(0), LogVal(1), LogVal(Fraction(3, 2)), LogVal(3)]
    assert not check_condition_c(bad_ratio, lv_rk)
    too_big = [LogVal(0) for _ in range(5)]  # t = 1 > r(K, d)
    assert not check_condition_c(too_big, lv_rk)


def test_newton_polygon_examples(gauss5):
    K = gauss5
    dom = ExactDomain(K)
    x = K.var(0)
    np1 = newton_polygon(TwistedPoly.from_list(dom, 0, [K.one() / 5, 1]))
    assert np1.slopes == ((Fraction(-1), 1),)
    np2 = newton_polygon(TwistedPoly.from_list(dom, 0, [x, -K.one() / 5, 1]))
    assert np2.slopes == ((Fraction(-1), 1), (Fraction(1), 1))
    np3 = newton_polygon(TwistedPoly.from_list(dom, 0, [0, 0, 0, 1]))
    assert np3.slopes == () and np3.at_zero == 3
    with pytest.raises(NotMonic):
        newton_polygon(TwistedPoly.from_list(dom, 0, [1, x]))
    with pytest.raises(ZeroPolynomial):
        newton_polygon(TwistedPoly.zero(dom, 0))


def test_laurent_ring_laws(laurent):
    rng = random.Random(10)
    for _ in range(20):
        p = random_twisted(laurent, rng, max_deg=3, height=5)
        q = random_twisted(laurent, rng, max_deg=3, height=5)
        assert mul(p, q) == mul_relation(p, q)
        if not q.is_zero():
            d, r = divmod_right(p, q)
            assert mul(d, q) + r == p

"""Differential modules: companion forms, cyclic vectors, duals, estimates."""

import random
from fractions import Fraction

import pytest

from padic_dm import (DiffModule, ExactDomain, FieldMismatch, IntegrabilityError,
                      LogVal, ModuleMorphism, NotMonic, TwistedPoly,
                      cyclic_data, direct_sum, divmod_right,
                      dual, from_operator, iterate_G, linalg as la,
                      spectral_radius_bruteforce)

from conftest import random_scalar, random_twisted


def scalar_module(field, c):
    return DiffModule(ExactDomain(field), 1, [[[field.scalar(c)
                                                if not hasattr(c, "field") else c]]])


def test_from_operator_examples(gauss5):
    K = gauss5
    dom = ExactDomain(K)
    x = K.var(0)
    m = from_operator(TwistedPoly.from_list(dom, 0, [-x, 1]))
    assert m.mats[0] == [[x]]
    m2 = from_operator(TwistedPoly.t_power(dom, 0, 2))
    g = m2.mats[0]
    assert g[0][0].is_zero() and g[0][1].is_zero()
    assert g[1][0] == K.one() and g[1][1].is_zero()
    m3 = from_operator(TwistedPoly.from_list(dom, 0, [1, 1]))
    assert m3.mats[0] == [[K.scalar(-1)]]
    with pytest.raises(NotMonic):
        from_operator(TwistedPoly.from_list(dom, 0, [1, x]))


def test_cyclic_roundtrip(gauss5):
    # for a companion presentation, the first candidate e_0 returns P itself
    rng = random.Random(11)
    for _ in range(10):
        p = random_twisted(gauss5, rng, max_deg=3, height=5)
        if p.is_zero() or p.degree == 0:
            continue
        from padic_dm import monicize
        p = monicize(p)
        m = from_operator(p)
        q, cbasis = cyclic_data(m, 0)
        assert q == p
        assert la.mat_equal(cbasis, la.identity(m.domain, m.dim))


def test_cyclic_scalar(gauss5):
    K = gauss5
    x = K.var(0)
    m = scalar_module(K, x)
    p, _ = cyclic_data(m, 0)
    assert p == TwistedPoly.from_list(ExactDomain(K), 0, [-x, 1])


def test_cyclic_equal_blocks(gauss5):
    # diag(c, c) is cyclic over a differential field
    K = gauss5
    c = K.one() / 5
    m = direct_sum(scalar_module(K, c), scalar_module(K, c))
    p, _ = cyclic_data(m, 0)
    assert p.degree == 2


def test_iterate_examples(gauss5):
    K = gauss5
    x = K.var(0)
    m = scalar_module(K, x)
    assert la.mat_equal(iterate_G(m, 0, 0), la.identity(m.domain, 1))
    assert iterate_G(m, 0, 2)[0][0] == x * x + 1
    mc = scalar_module(K, K.scalar(3))
    assert iterate_G(mc, 0, 4)[0][0] == K.scalar(81)


def test_convention_soundness(gauss5):
    # columns of G_k match right remainders of T^{k+j} by the operator
    rng = random.Random(12)
    for _ in range(6):
        from padic_dm import monicize
        p = random_twisted(gauss5, rng, max_deg=3, height=4)
        if p.is_zero() or p.degree == 0:
            continue
        p = monicize(p)
        m = from_operator(p)
        dom = m.domain
        for k in range(7):
            gk = iterate_G(m, 0, k)
            for j in range(m.dim):
                _, r = divmod_right(TwistedPoly.t_power(dom, 0, k + j), p)
                for i in range(m.dim):
                    assert (r.coeff(i) - gk[i][j]).is_zero()


def test_spectral_examples(gauss5):
    K = gauss5
    est = spectral_radius_bruteforce(scalar_module(K, K.one() / 5), 0, 20)
    assert est.lv == LogVal(Fraction(5, 4)) and est.spread == 0
    est0 = spectral_radius_bruteforce(scalar_module(K, 0), 0, 20)
    assert est0.lv == LogVal(Fraction(1, 4))
    estx = spectral_radius_bruteforce(scalar_module(K, K.var(0)), 0, 20)
    assert estx.lv == LogVal(Fraction(1, 4))


def test_dual(gauss5):
    K = gauss5
    x = K.var(0)
    m = scalar_module(K, x)
    assert dual(m).mats[0] == [[-x]]
    rng = random.Random(13)
    g = [[random_scalar(K, rng) for _ in range(2)] for _ in range(2)]
    m2 = DiffModule(ExactDomain(K), 2, [g])
    assert la.mat_equal(dual(dual(m2)).mats[0], g)
    assert dual(m2).dim == 2


def test_direct_sum(gauss5, laurent):
    K = gauss5
    m1 = scalar_module(K, K.one() / 5)
    m2 = scalar_module(K, 0)
    s = direct_sum(m1, m2)
    assert s.dim == 2
    assert s.mats[0][0][0] == K.one() / 5 and s.mats[0][1][1].is_zero()
    zero_dim = DiffModule(ExactDomain(K), 0, [[]])
    assert direct_sum(zero_dim, m1).dim == 1
    with pytest.raises(FieldMismatch):
        direct_sum(m1, scalar_module(laurent, 0))


def test_derived_modules_keep_the_carried_derivations(gauss5xy):
    # a module carrying only d_y: each construction from it fills the y
    # slot alone, and the direct sum is block diagonal
    K = gauss5xy
    y, z, one = K.var(1), K.zero(), K.one()
    m = DiffModule(ExactDomain(K), 1, [None, [[y]]])
    s = direct_sum(m, dual(m))
    assert s.mats == (None, [[y, z], [z, -y]])
    gauge = s.change_basis([[one, one], [z, one]])
    assert gauge.derivations == (1,) and gauge.dim == 2
    seen = []

    def f(j, g):
        seen.append(j)
        return [[g[0][0], z], [z, one]]

    assert m.mapped(m.domain, 2, f).mats == (None, [[y, z], [z, one]])
    assert seen == [1]


def test_integrability(gauss5xy):
    K = gauss5xy
    x, y = K.var(0), K.var(1)
    z, one = K.zero(), K.one()
    # commuting pair accepted
    DiffModule(ExactDomain(K), 2, [[[one / 5, z], [z, z]],
                                   [[z, z], [z, one / 5]]])
    with pytest.raises(IntegrabilityError):
        DiffModule(ExactDomain(K), 2, [[[y, z], [z, z]],
                                       [[z, z], [x * x, z]]])
    # a gauge transform of the trivial module is flat, and its matrices do
    # not commute: d_a(G_b) + G_a G_b = d_b(G_a) + G_b G_a holds only in
    # this order, so the transposed pair is not flat
    dom = ExactDomain(K)
    trivial = DiffModule(dom, 2, [la.zeros(dom, 2, 2)] * 2)
    mats = trivial.change_basis([[one, x * y], [y, one + x]]).mats
    DiffModule(dom, 2, mats)
    with pytest.raises(IntegrabilityError):
        DiffModule(dom, 2, [la.transpose(g) for g in mats])


def test_morphism_intertwining(gauss5):
    K = gauss5
    rng = random.Random(14)
    g = [[random_scalar(K, rng) for _ in range(2)] for _ in range(2)]
    m = DiffModule(ExactDomain(K), 2, [g])
    # identity is a morphism; a gauge transform matrix intertwines the
    # transformed presentation with the original
    ModuleMorphism(m, m, la.identity(m.domain, 2))
    w = [[K.one(), K.var(0)], [K.zero(), K.one()]]
    mw = m.change_basis(w)
    ModuleMorphism(mw, m, w)
    bad = [[K.one(), K.one()], [K.zero(), K.one()]]
    with pytest.raises(ValueError):
        ModuleMorphism(mw, m, bad)


def test_dual_brute_force_agreement(gauss5):
    rng = random.Random(15)
    K = gauss5
    for _ in range(5):
        g = [[random_scalar(K, rng, height=4) *
              K.scalar(5) ** rng.randint(-1, 1) for _ in range(2)]
             for _ in range(2)]
        m = DiffModule(ExactDomain(K), 2, [g])
        e1 = spectral_radius_bruteforce(m, 0, 24)
        e2 = spectral_radius_bruteforce(dual(m), 0, 24)
        tol = e1.spread + e2.spread + Fraction(1, 4)
        assert abs(e1.lv - e2.lv) <= tol

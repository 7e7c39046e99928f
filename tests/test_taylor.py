"""Taylor maps, solution matrices, Hadamard estimates, pairings."""

import random
from fractions import Fraction
from math import factorial

import pytest

from padic_dm import (AllZero, DiffModule, ExactDomain, LogVal, TruncSeries,
                      biduality_transform, dual_pairing, hadamard_radius,
                      iterate_G, solution_matrix, taylor_map)
from padic_dm.linalg import mat_mul

from conftest import random_scalar


def test_taylor_map_examples(gauss5):
    K = gauss5
    x = K.var(0)
    tm = taylor_map(x, 0, 3)
    assert [str(c) for c in tm.coeffs] == ["x", "1", "0", "0"]


def test_taylor_map_homomorphism(gauss5):
    rng = random.Random(22)
    for _ in range(10):
        a = random_scalar(gauss5, rng, deg=2)
        b = random_scalar(gauss5, rng, deg=1) + gauss5.one()
        if b.is_zero():
            continue
        assert taylor_map(a * b, 0, 6) == taylor_map(a, 0, 6) * taylor_map(b, 0, 6)


def test_taylor_map_isometry(gauss5):
    K = gauss5
    c = K.one() / (K.var(0) - 5)
    tm = taylor_map(c, 0, 30)
    lv_rk = K.lv_rK(0)
    for i, a in enumerate(tm.coeffs):
        assert a.val() + lv_rk * i >= c.val()
    assert tm.coeffs[0].val() == c.val()


def test_solution_matrix_trivial(gauss5):
    K = gauss5
    dom = ExactDomain(K)
    m = DiffModule(dom, 1, [[[K.zero()]]])
    y = solution_matrix(m, 0, 4)
    assert [str(c) for c in y[0][0].coeffs] == ["1", "0", "0", "0", "0"]
    mc = DiffModule(dom, 1, [[[K.scalar(3)]]])
    yc = solution_matrix(mc, 0, 4)
    assert [str(c) for c in yc[0][0].coeffs] == ["1", "3", "9/2", "9/2", "27/8"]


def test_solution_matrix_ode(gauss5):
    # d/dX(Y) = Y * taylor(G) up to order N-1, checked symbolically
    rng = random.Random(23)
    K = gauss5
    for _ in range(4):
        g = [[random_scalar(K, rng, height=4) for _ in range(2)]
             for _ in range(2)]
        m = DiffModule(ExactDomain(K), 2, [g])
        n = 6
        y = solution_matrix(m, 0, n)
        tg = [[taylor_map(g[a][b], 0, n) for b in range(2)] for a in range(2)]
        rhs = mat_mul(y, tg)
        for a in range(2):
            for b in range(2):
                assert y[a][b].derive_x() == rhs[a][b].truncate(n - 1)


def test_hadamard_examples(gauss5):
    K = gauss5
    geo = TruncSeries.from_list([K.one() / K.scalar(5) ** i for i in range(21)])
    est = hadamard_radius(geo, (5, 20))
    assert est.lv == LogVal(1) and est.spread == 0
    ones = TruncSeries.from_list([K.one()] * 21)
    assert hadamard_radius(ones, (5, 20)).lv == LogVal(0)
    zero = TruncSeries.from_list([K.zero()] * 21)
    with pytest.raises(AllZero):
        hadamard_radius(zero, (5, 20))


def test_hadamard_solution_transfer(gauss5):
    # frozen oracle: for [1/5] the window [20, 40] estimate is
    # max_i (1 + v(i!)/i), attained at i = 25, hence 31/25
    K = gauss5
    m = DiffModule(ExactDomain(K), 1, [[[K.one() / 5]]])
    y = solution_matrix(m, 0, 40)
    est = hadamard_radius(y[0][0], (20, 40))
    expected = max(Fraction(1) + gauss5.lv_factorial(i) / i
                   for i in range(20, 41))
    assert est.lv == LogVal(expected) == LogVal(Fraction(31, 25))
    assert abs(est.lv - Fraction(5, 4)) <= Fraction(1, 20)


def test_transfer_pure_module(gauss5):
    # for a pure conjugated module the Hadamard estimates of the solution
    # entries approach the module's radius as the window grows
    import random as _random
    from padic_dm import profile
    from conftest import block_module
    rng = _random.Random(26)
    m, expected = block_module(gauss5, rng, [-2, -2])
    (rho,) = [k for k in expected]
    assert profile(m, 0, check=False).support == (rho,)
    y = solution_matrix(m, 0, 40)
    for a in range(2):
        for b in range(2):
            try:
                est = hadamard_radius(y[a][b], (20, 40))
            except AllZero:
                continue
            assert abs(est.lv - rho) <= est.spread + Fraction(1, 20)


def test_dual_pairing_scalar(gauss5):
    K = gauss5
    c = K.one() / 5
    m = DiffModule(ExactDomain(K), 1, [[[c]]])
    pv = dual_pairing(m, [K.one()], [K.one()], 6)
    for i in range(7):
        gi = iterate_G(m, 0, i)[0][0]
        assert (pv.coeff(i) - gi / factorial(i)).is_zero()
    assert pv.coeff(0) == K.one()


def test_dual_pairing_matrix_oracle(gauss5):
    rng = random.Random(24)
    K = gauss5
    g = [[random_scalar(K, rng, height=4) for _ in range(2)] for _ in range(2)]
    m = DiffModule(ExactDomain(K), 2, [g])
    x = [K.one(), K.scalar(3)]  # constant coordinates: matrix powers apply
    s = [random_scalar(K, rng), random_scalar(K, rng)]
    pv = dual_pairing(m, x, s, 6)
    for i in range(7):
        gi = iterate_G(m, 0, i)
        coords = [gi[0][0] * x[0] + gi[0][1] * x[1],
                  gi[1][0] * x[0] + gi[1][1] * x[1]]
        expect = (s[0] * coords[0] + s[1] * coords[1]) / factorial(i)
        assert (pv.coeff(i) - expect).is_zero()


def test_biduality_constant(gauss5):
    K = gauss5
    v = TruncSeries.from_list([K.scalar(7)] + [K.zero()] * 8)
    w = biduality_transform(v, 0, 8)
    assert w.coeff(0) == K.scalar(7)
    assert all(w.coeff(i).is_zero() for i in range(1, 9))


def test_biduality_involution(gauss5, laurent):
    rng = random.Random(25)
    for field in (gauss5, laurent):
        for _ in range(10):
            v = TruncSeries.from_list(random_scalar(field, rng, deg=2)
                                      for _ in range(9))
            w = biduality_transform(biduality_transform(v, 0, 8), 0, 8)
            assert all((w.coeff(i) - v.coeff(i)).is_zero() for i in range(9))


def test_biduality_zero(gauss5):
    v = TruncSeries.from_list([gauss5.zero()] * 9)
    w = biduality_transform(v, 0, 8)
    assert all(c.is_zero() for c in w.coeffs)

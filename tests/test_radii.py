"""Radius profiles: polygon route, oracle agreement, rationality."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from padic_dm import (CertificateFailure, DiffModule, ExactDomain, LogVal,
                      NotMonic, RadiusProfile, TwistedPoly, ZeroPolynomial,
                      check_profile, check_rationality, direct_sum, dual,
                      profile, radii_from_polygon, spectral_radius_bruteforce)

from conftest import block_module


def lv(x):
    return LogVal(Fraction(x))


def entries(prof):
    return {k: m for k, m in prof.entries}


def test_polygon_radii_examples(gauss5):
    K = gauss5
    dom = ExactDomain(K)
    x = K.var(0)
    p1 = TwistedPoly.from_list(dom, 0, [-K.one() / 5, 1])
    assert entries(radii_from_polygon(p1)) == {lv("5/4"): 1}
    p2 = TwistedPoly.from_list(dom, 0, [-x, 1])
    prof2 = radii_from_polygon(p2)
    assert entries(prof2) == {lv("1/4"): 1}
    assert prof2.boundary_clipped
    p3 = TwistedPoly.from_list(dom, 0, [x, -K.one() / 5, 1])
    assert entries(radii_from_polygon(p3)) == {lv("5/4"): 1, lv("1/4"): 1}


def test_polygon_radii_errors(gauss5):
    from padic_dm import ZeroDegree
    dom = ExactDomain(gauss5)
    with pytest.raises(NotMonic):
        radii_from_polygon(TwistedPoly.from_list(dom, 0, [1, gauss5.var(0)]))
    with pytest.raises(ZeroDegree):
        radii_from_polygon(TwistedPoly.from_list(dom, 0, [1]))
    with pytest.raises(ZeroPolynomial):
        radii_from_polygon(TwistedPoly.zero(dom, 0))


def test_profile_examples(gauss5):
    K = gauss5
    dom = ExactDomain(K)
    from padic_dm import from_operator
    m = from_operator(TwistedPoly.from_list(dom, 0, [-K.one() / 5, 1]))
    assert entries(profile(m, 0)) == {lv("5/4"): 1}
    m2 = direct_sum(DiffModule(dom, 1, [[[K.one() / 5]]]),
                    DiffModule(dom, 1, [[[K.one() / 25]]]))
    assert entries(profile(m2, 0)) == {lv("5/4"): 1, lv("9/4"): 1}
    empty = profile(DiffModule(dom, 0, [[]]), 0)
    assert empty.entries == () and empty.dim == 0


def test_profile_invariants(gauss5):
    rng = random.Random(16)
    for _ in range(12):
        ks = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        m, expected = block_module(gauss5, rng, ks)
        prof = profile(m, 0)
        assert entries(prof) == expected
        assert sum(mm for _, mm in prof.entries) == prof.dim == m.dim
        assert len(prof.entries) <= prof.dim
        assert all(k >= gauss5.lv_rK(0) for k, _ in prof.entries)


def test_additivity_and_dual_invariance(gauss5):
    rng = random.Random(17)
    for _ in range(8):
        m1, e1 = block_module(gauss5, rng, [rng.randint(-3, 3)])
        m2, e2 = block_module(gauss5, rng,
                              [rng.randint(-3, 3), rng.randint(-3, 3)])
        p1, p2 = profile(m1, 0), profile(m2, 0)
        psum = profile(direct_sum(m1, m2), 0)
        assert entries(psum) == entries(p1.union(p2))
        assert profile(dual(m2), 0) == p2


def test_of_sums_repeated_keys_and_drops_zero_totals():
    from padic_dm import MultiRadiusProfile
    a, b, c = lv("1/4"), lv("5/4"), lv("9/4")
    prof = RadiusProfile.of([(b, 1), (a, 2), (b, 2), (c, 0), (c, 1), (c, -1)],
                            5, 0)
    assert prof.entries == ((a, 2), (b, 3))
    mp = MultiRadiusProfile.of([((b, a), 1), ((a, b), 1), ((b, a), 1),
                                ((a, a), 0)], 3)
    assert mp.entries == (((a, b), 1), ((b, a), 2))
    assert mp.marginal(0, 0).entries == ((a, 1), (b, 2))


def test_profile_equality_ignores_deriv_and_boundary_flag():
    p0 = RadiusProfile.of([(lv("1/4"), 1)], 1, 0)
    p1 = RadiusProfile.of([(lv("1/4"), 1)], 1, 1, boundary_clipped=True)
    assert p0 == p1 and hash(p0) == hash(p1) and len({p0, p1}) == 1
    assert p0 != RadiusProfile.of([(lv("1/4"), 1)], 2, 0)
    assert p0 != RadiusProfile.of([(lv("5/4"), 1)], 1, 0)


def test_check_rationality(gauss5):
    ok = RadiusProfile.of([(lv("5/4"), 1)], 1, 0)
    rep = check_rationality(ok, gauss5)
    assert rep.ok and rep.advisory_ok
    assert rep.entries[0][2] == "pass"
    boundary = RadiusProfile.of([(lv("1/4"), 1)], 1, 0)
    rep2 = check_rationality(boundary, gauss5)
    assert rep2.ok and rep2.entries[0][2] == "skipped-boundary"
    empty = RadiusProfile.of((), 0, 0)
    assert check_rationality(empty, gauss5).ok


def test_check_rationality_flags_a_fractional_multiple(gauss5):
    # (lv - lv_omega) * mult = 1/4 is not an integer; a profile read from a
    # polygon never gives one, as its vertices are lattice points
    prof = RadiusProfile.of([(lv("1/2"), 1), (lv("1/4"), 1)], 2, 0)
    rep = check_rationality(prof, gauss5)
    assert rep.ok and not rep.advisory_ok
    assert rep.entries == ((lv("1/4"), 1, "skipped-boundary"),
                           (lv("1/2"), 1, "flag"))


def test_check_profile(gauss5):
    # the maximal radius 9/4 agrees with the oracle; an estimate shifted
    # by 2 does not, and the empty profile passes against any estimate
    K = gauss5
    dom = ExactDomain(K)
    m = direct_sum(DiffModule(dom, 1, [[[K.one() / 5]]]),
                   DiffModule(dom, 1, [[[K.one() / 25]]]))
    prof = profile(m, 0, check=False)
    est = spectral_radius_bruteforce(m, 0, 20)
    check_profile(prof, est, K)
    shifted = replace(est, lv=est.lv + 2)
    with pytest.raises(CertificateFailure):
        check_profile(prof, shifted, K)
    check_profile(RadiusProfile.of((), 0, 0), shifted, K)


def test_laurent_profiles(laurent):
    L = laurent
    dom = ExactDomain(L)
    z = L.var(0)
    blocks = [(-3, lv(3)), (-2, lv(2)), (-1, lv(1)), (0, lv(1)), (2, lv(1))]
    for k, expect in blocks:
        m = DiffModule(dom, 1, [[[z ** k]]])
        assert entries(profile(m, 0)) == {expect: 1}


def test_multi_marginal_shape(gauss5):
    from padic_dm import MultiRadiusProfile
    mp = MultiRadiusProfile.of(
        [((lv("5/4"), lv("1/4")), 1), ((lv("1/4"), lv("5/4")), 1)], 2)
    marg0 = mp.marginal(0, 0)
    assert entries(marg0) == {lv("5/4"): 1, lv("1/4"): 1}

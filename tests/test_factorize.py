"""Slope factorization and decompositions, with exact-lift oracles."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from padic_dm import (ApproxDomain, CertificateFailure, DiffModule,
                      ExactDomain, IterationBudget, LogVal,
                      MultiRadiusProfile, NoGap, PiNormParams, PrecisionCtx,
                      StabilityFailure, TwistedPoly, decompose, direct_sum,
                      factor_by_radii, from_operator, linalg as la, mul,
                      multi_decompose, parse_matrix, parse_operator, pi_norm,
                      profile, radii_from_polygon, slope_factorize)

from conftest import block_module, unimodular_conjugator
from test_golden_reports import CLIP_FIRST, CLIP_LATER


CTX = PrecisionCtx(Fraction(10), d=48, max_iter=80)


def lv(x):
    return LogVal(Fraction(x))


def exact_residual_lv(p, q_high, q_low, lv_t):
    """Independent oracle: lift the factors and measure the residual of the
    exact twisted product in the weighted norm at the break."""
    diff = p - mul(q_high.lift_exact(), q_low.lift_exact())
    return pi_norm(diff, PiNormParams(lv_t))


def test_no_gap(gauss5):
    dom = ExactDomain(gauss5)
    pure = TwistedPoly.from_list(dom, 0, [-gauss5.one() / 5, 1])
    with pytest.raises(NoGap):
        slope_factorize(pure, lv("5/4"), CTX)


def test_split_known_product(gauss5):
    K = gauss5
    dom = ExactDomain(K)
    x = K.var(0)
    lo = TwistedPoly.from_list(dom, 0, [-x, 1])
    hi = TwistedPoly.from_list(dom, 0, [-K.one() / 5, 1])
    for p in (mul(lo, hi), mul(hi, lo)):
        q_high, q_low = slope_factorize(p, lv("5/4"), CTX)
        assert q_high.is_monic() and q_low.is_monic()
        assert dict(radii_from_polygon(q_high).entries) == {lv("5/4"): 1}
        assert dict(radii_from_polygon(q_low).entries) == {lv("1/4"): 1}
        assert exact_residual_lv(p, q_high, q_low, lv("3/4")) >= LogVal(10)


def test_split_corpus(gauss5):
    rng = random.Random(18)
    K = gauss5
    dom = ExactDomain(K)
    x = K.var(0)
    for _ in range(10):
        k1, k2 = rng.sample([-3, -2, -1, 1, 2], 2)
        c1 = K.scalar(5) ** k1 * rng.choice([1, 2, 3])
        c2 = K.scalar(5) ** k2 * rng.choice([1, 2, 3]) + x
        f1 = TwistedPoly.from_list(dom, 0, [-c1, 1])
        f2 = TwistedPoly.from_list(dom, 0, [-c2, 1])
        p = mul(f1, f2)
        prof = radii_from_polygon(p)
        if len(prof.entries) < 2:
            continue
        breaks = sorted((k for k, _ in prof.entries), reverse=True)
        q_high, q_low = slope_factorize(p, breaks[0], CTX)
        mid = (breaks[0] + breaks[1]) / 2
        assert exact_residual_lv(p, q_high, q_low, mid) >= LogVal(10)


def test_factor_by_radii_chain(gauss5):
    K = gauss5
    dom = ExactDomain(K)
    p = mul(TwistedPoly.from_list(dom, 0, [-K.one() / 25, 1]),
            mul(TwistedPoly.from_list(dom, 0, [-K.one() / 5, 1]),
                TwistedPoly.from_list(dom, 0, [-K.var(0), 1])))
    chain = factor_by_radii(p, CTX)
    assert [k for k in chain.lvs] == [lv("9/4"), lv("5/4"), lv("1/4")]
    assert sum(f.degree for f in chain.factors) == 3
    for f, expect in zip(chain.factors, chain.lvs):
        assert dict(radii_from_polygon(f).entries) == {expect: 1}
    assert all(r >= LogVal(10) for r in chain.residual_lv)


def test_decompose_conjugated_pair(gauss5):
    K = gauss5
    rng = random.Random(19)
    dom = ExactDomain(K)
    m = direct_sum(DiffModule(dom, 1, [[[K.one() / 5]]]),
                   DiffModule(dom, 1, [[[K.var(0)]]]))
    mc = m.change_basis(unimodular_conjugator(K, rng, 2))
    dec = decompose(mc, 0, CTX)
    assert sorted(str(c.key) for c in dec.components) == ["1/4", "5/4"]
    assert sum(c.dim for c in dec.components) == 2
    assert dec.certificate.ok
    # embeddings stack to an invertible matrix (direct sum certificate)
    from padic_dm.precision import domain_of
    cols = [col for c in dec.components for col in la.columns(c.embedding)]
    assert la.is_invertible(la.from_columns(cols), domain_of(cols[0][0]))


def test_decompose_pure_fixed_point(gauss5):
    K = gauss5
    dom = ExactDomain(K)
    m = DiffModule(dom, 1, [[[K.one() / 5]]])
    dec = decompose(m, 0, CTX)
    assert len(dec.components) == 1
    comp = dec.components[0]
    assert comp.exact and comp.module is m
    assert la.mat_equal(comp.embedding, la.identity(dom, 1))


def test_decompose_zero_dim(gauss5):
    m = DiffModule(ExactDomain(gauss5), 0, [[]])
    dec = decompose(m, 0, CTX)
    assert dec.components == () and dec.certificate.ok
    assert dec.profile.entries == () and dec.profile.dim == 0


@pytest.mark.parametrize("mat, clipped", [(CLIP_LATER, True),
                                          (CLIP_FIRST, False)])
def test_decomposition_carries_its_operators_profile(gauss5, mat, clipped):
    # the first cyclic candidate of each module is not expandable, and the
    # profile comes from the second one, which the decomposition splits
    m = DiffModule(ExactDomain(gauss5), 3, [parse_matrix(mat, gauss5)])
    dec = decompose(m, 0, CTX)
    assert dec.profile == profile(m, 0, check=False)
    assert dec.profile.boundary_clipped is clipped
    assert profile(m, 0, check=False).boundary_clipped is not clipped


def test_decompose_profile_conservation(gauss5):
    rng = random.Random(20)
    for _ in range(6):
        ks = rng.sample([-3, -2, -1, 0, 1, 2], rng.randint(2, 3))
        m, expected = block_module(gauss5, rng, ks)
        dec = decompose(m, 0, CTX)
        got = {}
        for c in dec.components:
            got[c.key] = got.get(c.key, 0) + c.dim
        assert got == expected
        # fixed point: each component decomposes to itself
        for c in dec.components:
            sub = decompose(c.module, 0, CTX)
            assert len(sub.components) == 1


def test_iteration_budget(gauss5):
    K = gauss5
    dom = ExactDomain(K)
    p = mul(TwistedPoly.from_list(dom, 0, [-K.var(0), 1]),
            TwistedPoly.from_list(dom, 0, [-K.one() / 5, 1]))
    starved = PrecisionCtx(Fraction(10), d=48, max_iter=0)
    with pytest.raises(IterationBudget):
        slope_factorize(p, lv("5/4"), starved)
    from padic_dm import from_operator
    with pytest.raises(IterationBudget) as err:
        decompose(from_operator(p), 0, starved)
    assert err.value.attempts
    assert err.value.attempts[-1] == ("iteration-budget", str(err.value))


def test_multi_decompose_example(gauss5xy):
    K = gauss5xy
    dom = ExactDomain(K)
    one, z = K.one(), K.zero()
    ctx = PrecisionCtx(Fraction(10), d=28, max_iter=80)
    m = DiffModule(dom, 2, [[[one / 5, z], [z, z]], [[z, z], [z, one / 5]]])
    dec = multi_decompose(m, ctx)
    keys = sorted(tuple(str(k) for k in c.key) for c in dec.components)
    assert keys == [("1/4", "5/4"), ("5/4", "1/4")]
    assert all(c.dim == 1 for c in dec.components)
    assert dec.certificate.ok
    assert dec.profile == MultiRadiusProfile.from_dict(
        {(lv("1/4"), lv("5/4")): 1, (lv("5/4"), lv("1/4")): 1}, 2)


def test_multi_decompose_trivial(gauss5xy):
    K = gauss5xy
    dom = ExactDomain(K)
    z = K.zero()
    ctx = PrecisionCtx(Fraction(10), d=28, max_iter=80)
    m = DiffModule(dom, 2, [[[z, z], [z, z]], [[z, z], [z, z]]])
    dec = multi_decompose(m, ctx)
    assert [tuple(str(k) for k in c.key) for c in dec.components] == \
        [("1/4", "1/4")]
    assert dec.components[0].dim == 2


def test_multi_decompose_conjugated(gauss5xy):
    K = gauss5xy
    dom = ExactDomain(K)
    one, z = K.one(), K.zero()
    x, y = K.var(0), K.var(1)
    ctx = PrecisionCtx(Fraction(10), d=28, max_iter=80)
    m = DiffModule(dom, 2, [[[one / 5, z], [z, z]], [[z, z], [z, one / 5]]])
    w = la.mat_mul([[one, x * y], [z, one]], [[one, z], [x + y, one]])
    dec = multi_decompose(m.change_basis(w), ctx)
    keys = sorted(tuple(str(k) for k in c.key) for c in dec.components)
    assert keys == [("1/4", "5/4"), ("5/4", "1/4")]
    # marginals reproduce the single-derivation profiles
    for pos, j in enumerate((0, 1)):
        marg = {}
        for c in dec.components:
            marg[c.key[pos]] = marg.get(c.key[pos], 0) + c.dim
        single = profile(m, j, check=False)
        assert marg == dict(single.entries)


def test_laurent_decompose(laurent):
    L = laurent
    dom = ExactDomain(L)
    z = L.var(0)
    m = direct_sum(DiffModule(dom, 1, [[[z ** -3]]]),
                   DiffModule(dom, 1, [[[L.one()]]]))
    rng = random.Random(21)
    mc = m.change_basis(unimodular_conjugator(L, rng, 2))
    dec = decompose(mc, 0, CTX)
    assert sorted(str(c.key) for c in dec.components) == ["1", "3"]
    assert dec.certificate.ok


def test_restrict_rejects_unstable_span(gauss5xy):
    from padic_dm.factorize import _restrict
    K = gauss5xy
    z, one = K.zero(), K.one()
    # T_x acts by 0, T_y swaps the basis vectors: e1 + e2 spans a
    # submodule, e1 alone does not
    m = DiffModule(ExactDomain(K), 2, [[[z, z], [z, z]], [[z, one], [one, z]]])
    adom = ApproxDomain(K, CTX, CTX.working_err())
    stable = _restrict(m, [[adom.one(), adom.one()]], adom, CTX)
    assert stable.dim == 1 and stable.mats[1][0][0] == adom.one()
    with pytest.raises(StabilityFailure, match="not stable under derivation"):
        _restrict(m, [[adom.one(), adom.zero()]], adom, CTX)


def test_corrupted_chain_factor_fails_certificate(gauss5, monkeypatch):
    from padic_dm import factorize
    right_chain = factorize._right_chain

    def corrupted(p, lvs, ctx):
        # shift the constant term of the lv 1/4 factor T - x by 1/25: its
        # root moves to valuation -2, so the factor is no longer pure of 1/4
        chain = right_chain(p, lvs, ctx)
        f = chain.factors[-1]
        bad = TwistedPoly(f.domain, f.deriv,
                          (f.coeffs[0] + gauss5.one() / 25,) + f.coeffs[1:])
        return replace(chain, factors=chain.factors[:-1] + (bad,))

    m = from_operator(parse_operator("T^2 - (1/5)*T + x", gauss5))
    assert decompose(m, 0, CTX).certificate.ok
    monkeypatch.setattr(factorize, "_right_chain", corrupted)
    with pytest.raises(CertificateFailure, match="certificate failed"):
        decompose(m, 0, CTX)


def test_corrupted_embedding_fails_certificate(gauss5, monkeypatch):
    from padic_dm import factorize
    span_columns = factorize._span_columns
    first = []

    def corrupted(tail, n):
        # the span of the second component gets the first component's
        # first column in place of its own: the embeddings are then
        # linearly dependent and cannot be a direct sum
        cols = span_columns(tail, n)
        if not first:
            first.append(cols[0])
            return cols
        return [first.pop()] + cols[1:]

    m = from_operator(parse_operator("T^2 - (1/5)*T + x", gauss5))
    assert decompose(m, 0, CTX).certificate.ok
    monkeypatch.setattr(factorize, "_span_columns", corrupted)
    with pytest.raises((CertificateFailure, StabilityFailure),
                       match="direct_sum_ok': False"):
        decompose(m, 0, CTX)


def test_unstable_span_fails_stability_certificate(gauss5, monkeypatch):
    from padic_dm import factorize
    span_columns = factorize._span_columns
    first = []

    def corrupted(tail, n):
        # the lv 1/4 column (second call) becomes itself plus the lv 5/4
        # column (first call): still independent, so the direct-sum check
        # passes, but the span is no longer stable under the derivation
        cols = span_columns(tail, n)
        if not first:
            first.append(cols[0])
            return cols
        other = first.pop()
        return [[a + b for a, b in zip(cols[0], other)]] + cols[1:]

    m = from_operator(parse_operator("T^2 - (1/5)*T + x", gauss5))
    assert decompose(m, 0, CTX).certificate.stability_ok
    monkeypatch.setattr(factorize, "_span_columns", corrupted)
    with pytest.raises(CertificateFailure, match="stability_ok': False"):
        decompose(m, 0, CTX)


# -- the chord contraction ------------------------------------------------


def _fresh_hensel(p, d_low, lv_t, ctx, right):
    """Reference contraction: the constant term of the cofactor is inverted
    afresh at every step."""
    from padic_dm.factorize import _init_low_factor
    from padic_dm.twisted import divmod_left, divmod_right
    params = PiNormParams(lv_t)
    q = _init_low_factor(p, d_low)
    for _ in range(ctx.max_iter + 1):
        cof, r = (divmod_right if right else divmod_left)(p, q)
        res = pi_norm(r, params)
        if res >= LogVal(ctx.N):
            return cof, q, res
        zinv = cof.coeff(0).inverse()
        if right:
            q = q + r.scale_left(zinv)
        else:
            q = q + mul(r, TwistedPoly.constant(p.domain, p.deriv, zinv))
    raise AssertionError("reference contraction did not reach N")


def _splits(text, field, ctx):
    """Every split of the operator at one of its breaks, as the arguments
    of ``factorize._hensel`` before ``ctx``."""
    from padic_dm.factorize import _split_groups, reduce_operator
    p = reduce_operator(parse_operator(text, field), ctx)
    lvs = sorted(radii_from_polygon(p).as_dict(), reverse=True)
    assert len(lvs) > 1
    return [(p, *_split_groups(p, lv)) for lv in lvs[:-1]]


def _same_at(n, a, b):
    return a.degree == b.degree and all(
        (x - y).truncate_err(n).is_zero() for x, y in zip(a.coeffs, b.coeffs))


def _count_cofactor_inversions(monkeypatch, right, perturb=None):
    """Patch the contraction so that each inversion of a cofactor's constant
    term is recorded by step (and the first one optionally perturbed)."""
    from padic_dm import factorize
    from padic_dm.precision import ApproxScalar
    name = "divmod_right" if right else "divmod_left"
    divide, inverse = getattr(factorize, name), ApproxScalar.inverse
    cofs, steps = [], []

    def recorded(p, q):
        out = divide(p, q)
        cofs.append(out[0])
        return out

    def counted(self):
        z = inverse(self)
        if cofs and self is cofs[-1].coeff(0):
            steps.append(len(cofs) - 1)
            if perturb is not None and len(steps) == 1:
                z = perturb(z)
        return z

    monkeypatch.setattr(factorize, name, recorded)
    monkeypatch.setattr(ApproxScalar, "inverse", counted)
    return steps


CHORD_CASES = [   # field, operator, degree cap d (Laurent: a window > N)
    ("gauss5", "T^2 - (1/5)*T + x", 32),
    ("gauss5", "T^2 - (1/125)*T + x", 32),
    ("gauss5", "(T - 1/25)*(T - 1/5)*(T - x)", 32),
    ("gauss5xy", "T^2 - (1/5 + y)*T + x*y", 24),
    ("laurent", "T^2 - (1/z^3)*T + 1/z", 64),
    ("laurent", "T^3 - (1/z^4)*T^2 + (1/z)*T + 1", 64),
]


@pytest.mark.parametrize("right", [True, False], ids=["right", "left"])
@pytest.mark.parametrize("field,text,d", CHORD_CASES)
def test_chord_matches_fresh_inverse(request, field, text, d, right):
    from padic_dm.factorize import _hensel
    ctx = PrecisionCtx(Fraction(30), d=d, max_iter=100)
    for p, d_low, lv_t, gap in _splits(text, request.getfixturevalue(field),
                                       ctx):
        cof, q, res = _hensel(p, d_low, lv_t, gap, ctx, right)
        ref_cof, ref_q, ref_res = _fresh_hensel(p, d_low, lv_t, ctx, right)
        assert res >= LogVal(30) and ref_res >= LogVal(30)
        assert _same_at(30, q, ref_q) and _same_at(30, cof, ref_cof)


@pytest.mark.parametrize("right", [True, False], ids=["right", "left"])
def test_chord_inverts_the_cofactor_a_few_times(gauss5, monkeypatch, right):
    # a fresh inverse per step would make 49 inversions in these 50 steps
    from padic_dm.factorize import _hensel
    ctx = PrecisionCtx(Fraction(80), d=48, max_iter=100)
    (split,) = _splits("T^2 - (1/5)*T + x", gauss5, ctx)
    steps = _count_cofactor_inversions(monkeypatch, right)
    _cof, _q, res = _hensel(*split, ctx, right)
    assert res >= LogVal(80)
    assert 1 <= len(steps) <= 3


@pytest.mark.parametrize("right", [True, False], ids=["right", "left"])
def test_chord_refreshes_a_stale_inverse(gauss5, monkeypatch, right):
    """The first z is off at lv gap - 1 = 2, so the step it makes gains 2
    where the gap is 3: the next step inverts afresh, and the factors are
    those of the unperturbed contraction."""
    from padic_dm.factorize import _hensel
    ctx = PrecisionCtx(Fraction(40), d=32, max_iter=100)
    (split,) = _splits("T^2 - (1/125)*T + x", gauss5, ctx)
    assert split[3] == LogVal(3)
    cof, q, _res = _hensel(*split, ctx, right)
    steps = _count_cofactor_inversions(monkeypatch, right,
                                       perturb=lambda z: z + z * 25)
    stale_cof, stale_q, res = _hensel(*split, ctx, right)
    assert steps == [0, 1]
    assert res >= LogVal(40)
    assert _same_at(40, q, stale_q) and _same_at(40, cof, stale_cof)

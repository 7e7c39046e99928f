"""Slope factorization and decompositions, with exact-lift oracles."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from padic_dm import (ApproxDomain, CertificateFailure, DiffModule,
                      ExactDomain, FieldMismatch, IterationBudget, LogVal,
                      MultiRadiusProfile, NoGap, PrecisionCtx, PrecisionLoss,
                      SearchExhausted, StabilityFailure, TwistedPoly,
                      decompose, direct_sum, factor_by_radii, from_operator,
                      iterate_G, linalg as la, mul, multi_decompose,
                      parse_matrix, parse_operator, pi_norm, profile,
                      radii_from_polygon, slope_factorize,
                      spectral_radius_bruteforce)

from conftest import block_module, unimodular_conjugator
from test_golden_reports import CLIP_FIRST, CLIP_LATER


CTX = PrecisionCtx(Fraction(10), d=48, max_iter=80)


def lv(x):
    return LogVal(Fraction(x))


def exact_residual_lv(p, q_high, q_low, lv_t):
    """Independent oracle: lift the factors and measure the residual of the
    exact twisted product in the weighted norm at the break."""
    diff = p - mul(q_high.lift_exact(), q_low.lift_exact())
    return pi_norm(diff, lv_t)


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


def test_decompose_pure_operator_stays_exact(gauss5):
    # 1/x has no expansion over the Gauss model: a single radius is all of
    # M and is returned before any reduction to working precision
    m = from_operator(parse_operator("T^2 - 1/x", gauss5, 0))
    dec = decompose(m, 0, CTX)
    assert [(c.dim, c.exact) for c in dec.components] == [(2, True)]
    assert dec.components[0].module is m


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


def test_decompose_without_candidates_exhausts_the_search(gauss5,
                                                          monkeypatch):
    from padic_dm import factorize
    m = from_operator(parse_operator("T^2 - (1/5)*T + x", gauss5))
    monkeypatch.setattr(factorize, "cyclic_presentations",
                        lambda m, j: iter(()))
    with pytest.raises(SearchExhausted) as err:
        decompose(m, 0, CTX)
    assert err.value.attempts == ()


# With factorize.DEFAULT_GUARD at 0, factors certified by each
# coefficient's err_lv alone have exact residual 19 < N = 20 (span 13,
# working error N + 3 * span) and 39/4 < N = 10 (span 1).  The lifting
# floor of _hensel sees both misses, by 1 digit each, and the rerun with
# that digit added reaches N.  At 2 * span in place of 3 * span the span-13
# split falls 14 digits short, and is rerun too.  d = 96 keeps the degree
# cap out of the way.
WORKING_PRECISION_CASES = [
    ("T^5 + ((1+5*x)/5^13)*T^4 + (2/5^13)*T^3"
     " + ((1+5*x)/5^7)*T^2 + ((1+5*x)/5^13)*T + x/5^3", 20),
    ("T^4 + (1/5)*T^3 + 5*x*T^2 + 2*T + 125", 10)]


def _split_residual(p, n):
    """Exact residual of the top split of p at N = n, in the weighted norm
    at the middle of its gap."""
    ctx = PrecisionCtx(Fraction(n), d=96, max_iter=80)
    breaks = radii_from_polygon(p).support[::-1]
    q_high, q_low = slope_factorize(p, breaks[0], ctx)
    return exact_residual_lv(p, q_high, q_low, (breaks[0] + breaks[1]) / 2)


def test_working_precision_reaches_the_target(gauss5):
    for text, n in WORKING_PRECISION_CASES:
        p = parse_operator(text, gauss5, 0)
        assert _split_residual(p, n) >= LogVal(n)


@pytest.mark.parametrize("text,n", WORKING_PRECISION_CASES,
                         ids=["span-13", "span-1"])
def test_short_lifting_floor_is_rerun_with_the_shortfall(gauss5, monkeypatch,
                                                         text, n):
    from padic_dm import factorize
    hensel_right = factorize._hensel_right
    shortfalls = []

    def recorded(*args):
        try:
            return hensel_right(*args)
        except PrecisionLoss as exc:
            shortfalls.append(exc.shortfall)
            raise

    monkeypatch.setattr(factorize, "DEFAULT_GUARD", 0)
    monkeypatch.setattr(factorize, "_hensel_right", recorded)
    assert _split_residual(parse_operator(text, gauss5, 0), n) >= LogVal(n)
    assert shortfalls == [1]


@pytest.mark.parametrize("right", [True, False], ids=["right", "left"])
@pytest.mark.parametrize("factor,i,need,short_floor",
                         [("cofactor", 1, 12, "19/2"), ("factor", 0, 13, "9")])
def test_lifting_floor_rejects_a_coarse_factor_coefficient(
        gauss5, monkeypatch, right, factor, i, need, short_floor):
    """At the lv 5/4 break, at N = 10 and lv_t = 3/4, the cofactor D has
    degree 2 and |D| = -3, the factor Q degree 1 and |Q| = -3/4.  So F_i
    needs its digits to err N - |other factor| - lv(i!) + i * lv_t: 23/2
    for D_1, 13 for Q_0.  Cut to the next integer they certify the split;
    one digit lower the lifting floor falls short by 1."""
    from padic_dm import factorize
    from padic_dm.factorize import _hensel
    name = "divmod_right" if right else "divmod_left"
    divide, init = getattr(factorize, name), factorize._init_low_factor
    ctx = PrecisionCtx(Fraction(10), d=48, max_iter=80)
    text = "(T - 1/25)*(T - 1/5)*(T - x)"
    split = _splits(text, gauss5, ctx)[1]
    assert split[1:3] == (1, lv("3/4"))

    def coarse(f, err):
        coeffs = list(f.coeffs)
        coeffs[i] = coeffs[i].truncate_err(err)
        return TwistedPoly(f.domain, f.deriv, coeffs)

    def run_cut_to(err):
        if factor == "cofactor":
            def cut(p, q):
                cof, r = divide(p, q)
                return coarse(cof, err), r
            monkeypatch.setattr(factorize, name, cut)
        else:
            monkeypatch.setattr(factorize, "_init_low_factor",
                                lambda p, d_low: coarse(init(p, d_low), err))
        return _hensel(*split, right)

    cof, q, _res = run_cut_to(need)
    lifted = (cof.lift_exact(), q.lift_exact())
    p = parse_operator(text, gauss5)
    assert exact_residual_lv(p, *(lifted if right else lifted[::-1]),
                             lv("3/4")) >= LogVal(10)
    with pytest.raises(PrecisionLoss,
                       match=f"lifting floor {short_floor} below target "
                             f"N = 10, short by 1") as err:
        run_cut_to(need - 1)
    assert err.value.shortfall == 1


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
    assert dec.profile == MultiRadiusProfile.of(
        [((lv("1/4"), lv("5/4")), 1), ((lv("5/4"), lv("1/4")), 1)], 2)


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


def _diagonal(field, *diags):
    """Module with T_j = diag(diags[j]) / 5, entries 0 or 1."""
    one, z = field.one(), field.zero()
    n = len(diags[0])
    return DiffModule(ExactDomain(field), n,
                      [[[one / 5 if i == k and d[i] else z for k in range(n)]
                        for i in range(n)] for d in diags])


def _supports(dec):
    """Key -> the coordinates on which the component's embedding lives."""
    return {tuple(str(k) for k in c.key):
            tuple(not all(e.is_zero() for e in row) for row in c.embedding)
            for c in dec.components}


@pytest.mark.parametrize("diags", [((1, 0), (0, 1)), ((1, 1, 0), (0, 0, 1))],
                         ids=["criterion-8", "multiplicity-2"])
def test_multi_decompose_ignores_derivation_order(gauss5xy, diags):
    # constant entries: swapping the matrices swaps the derivations
    ctx = PrecisionCtx(Fraction(10), d=28, max_iter=80)
    dec = multi_decompose(_diagonal(gauss5xy, *diags), ctx)
    swapped = multi_decompose(_diagonal(gauss5xy, *diags[::-1]), ctx)
    assert _supports(swapped) == {key[::-1]: rows
                                  for key, rows in _supports(dec).items()}
    assert sorted(c.dim for c in swapped.components) == \
        sorted(c.dim for c in dec.components)


def test_multi_decompose_one_derivation(laurent):
    # nothing to intersect: the components are decompose's own
    m = DiffModule(ExactDomain(laurent), 2,
                   [parse_matrix("1/(z^3),z;0,1", laurent)])
    single = decompose(m, 0, CTX)
    dec = multi_decompose(m, CTX)
    assert [(c.key, str(c.operator), c.exact) for c in dec.components] == \
        [((c.key,), str(c.operator), c.exact) for c in single.components]


def test_decompositions_need_the_derivation_they_split(gauss5xy):
    # a module without the asked-for structure is a typed error up front
    dom = ExactDomain(gauss5xy)
    with pytest.raises(FieldMismatch):
        multi_decompose(DiffModule(dom, 1, [None, None]), CTX)
    only_x = DiffModule(dom, 1, [[[gauss5xy.var(0)]], None])
    with pytest.raises(FieldMismatch):
        decompose(only_x, 1, CTX)
    assert decompose(only_x, 0, CTX).dim == 1
    # the module itself refuses a derivation it does not carry, on every
    # path that asks for it
    with pytest.raises(FieldMismatch, match="derivation 1"):
        profile(only_x, 1)
    with pytest.raises(FieldMismatch, match="derivation 1"):
        spectral_radius_bruteforce(only_x, 1, 4)
    with pytest.raises(FieldMismatch, match="derivation 1"):
        iterate_G(only_x, 1, 2)
    with pytest.raises(FieldMismatch, match="derivation 2"):
        iterate_G(only_x, 2, 2)


@pytest.mark.parametrize("order", ["swap-first", "split-first"])
def test_multi_decompose_certifies_kept_components(gauss5xy, order):
    # T_x swaps the basis vectors (one radius), T_y = diag(1/5, 0) splits
    # off e_0 and e_1, which T_x does not keep: unstable in either order,
    # also when the split derivation comes last and its components are
    # kept as presented
    c = gauss5xy.scalar
    swap = [[c(0), c(1)], [c(1), c(0)]]
    split = [[c(Fraction(1, 5)), c(0)], [c(0), c(0)]]
    mats = [swap, split] if order == "swap-first" else [split, swap]
    m = DiffModule(ExactDomain(gauss5xy), 2, mats, _checked=True)
    with pytest.raises(StabilityFailure, match="not stable under derivation"):
        multi_decompose(m, PrecisionCtx(Fraction(10), d=28))


def test_multi_decompose_proper_intersection(gauss5xy):
    # T_x = diag(1,1,0)/5, T_y = diag(1,0,1)/5: the (5/4, 5/4) component
    # e_0 is a proper subspace of both single components that hold it
    ctx = PrecisionCtx(Fraction(10), d=28, max_iter=80)
    dec = multi_decompose(_diagonal(gauss5xy, (1, 1, 0), (1, 0, 1)), ctx)
    assert _supports(dec) == {("5/4", "5/4"): (True, False, False),
                              ("5/4", "1/4"): (False, True, False),
                              ("1/4", "5/4"): (False, False, True)}
    assert [str(c.operator) for c in dec.components] == \
        ["(1)*T + (-1/5)", "(1)*T", "(1)*T + (-1/5)"]
    assert dec.certificate.ok


def overstated_meet(field):
    """The module of ``test_multi_decompose_proper_intersection`` conjugated
    by [[1,2+x,0],[0,1,0],[0,0,1]] [[1,0,0],[0,1,0],[1+y,0,1]]: at N = 10
    and d = 28 its intersections of single components come out of
    dimensions 2, 1, 1 and 0, four for a 3-dimensional module."""
    x, y = field.var(0), field.var(1)
    z, one = field.zero(), field.one()
    w = la.mat_mul([[one, 2 + x, z], [z, one, z], [z, z, one]],
                   [[one, z, z], [z, one, z], [1 + y, z, one]])
    return _diagonal(field, (1, 1, 0), (1, 0, 1)).change_basis(w)


def test_multi_decompose_rejects_overstated_intersections(gauss5xy):
    # checked before any intersection is presented: presenting the
    # overstated one exhausted the cyclic-vector search instead
    with pytest.raises(CertificateFailure,
                       match=r"dimensions \[2, 1, 1\] do not add up to 3"):
        multi_decompose(overstated_meet(gauss5xy),
                        PrecisionCtx(Fraction(10), d=28))


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
    from padic_dm.factorize import DEFAULT_GUARD, _restrict
    K = gauss5xy
    z, one = K.zero(), K.one()
    # T_x acts by 0, T_y swaps the basis vectors: e1 + e2 spans a
    # submodule, e1 alone does not
    m = DiffModule(ExactDomain(K), 2, [[[z, z], [z, z]], [[z, one], [one, z]]])
    adom = ApproxDomain(K, CTX, CTX.target_err + DEFAULT_GUARD)
    stable = _restrict(m, [[adom.one(), adom.one()]], adom)
    assert stable.dim == 1 and stable.mats[1][0][0] == adom.one()
    with pytest.raises(StabilityFailure, match="not stable under derivation"):
        _restrict(m, [[adom.one(), adom.zero()]], adom)


@pytest.mark.parametrize("job", ["readme-decompose", "three-radii",
                                 "readme-multi-decompose"])
def test_restrict_receives_columns_in_the_quotient(gauss5, monkeypatch, job):
    # _restrict does not map its columns into the certificate quotient: each
    # caller hands it spans that _intersect already took there
    from padic_dm import cli, factorize
    from test_golden_reports import JOBS
    restrict, intersect = factorize._restrict, factorize.la.intersect_spans
    seen, intersections = [], []

    def recording(m, u_cols, adom):
        seen.append((m.dim, u_cols))
        return restrict(m, u_cols, adom)

    def counting(u_cols, v_cols, domain):
        intersections.append(len(u_cols))
        return intersect(u_cols, v_cols, domain)

    monkeypatch.setattr(factorize, "_restrict", recording)
    monkeypatch.setattr(factorize.la, "intersect_spans", counting)
    if job == "three-radii":
        # lv 9/4, 5/4 and 1/4: the 5/4 component is B_1 meet A_1
        m, _ = block_module(gauss5, random.Random(5), [-2, -1, 0])
        dec = decompose(m, 0, CTX)
        assert dec.certificate.ok and len(dec.components) == 3
        assert intersections
    else:
        _report, code = cli.run(cli.parse_job(JOBS[job]))
        assert code == 0
    assert seen
    for n, u_cols in seen:
        for col, qcol in zip(u_cols, factorize._quotient(u_cols, n)):
            for e, q in zip(col, qcol):
                assert (q.shift, q.coeffs, q.den, q.err_lv) == \
                    (e.shift, e.coeffs, e.den, e.err_lv)


def test_corrupted_chain_factor_fails_certificate(gauss5, monkeypatch):
    from padic_dm import factorize
    right_chain = factorize._right_chain

    def corrupted(p, lvs):
        # shift the constant term of the lv 1/4 factor T - x by 1/25: its
        # root moves to valuation -2, so the factor is no longer pure of 1/4
        chain = right_chain(p, lvs)
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


@pytest.mark.parametrize("field,text,passes,fails,expandable", [
    ("gauss5", "T^2 - (1/5)*T + x", "3/4", "1", 3),
    ("laurent", "T^2 - (1/z^3)*T + 1/z", "1/2", "3/4", 6),
], ids=["gauss", "laurent"])
def test_purity_fails_on_a_wrong_estimate(request, monkeypatch, field, text,
                                          passes, fails, expandable):
    """Purity judges each factor's oracle estimate by ``check_profile``'s
    tolerance, spread + 1/2 + lv_omega: an estimate moved up by 3/4 (Gauss
    p=5) or 1/2 (Laurent) still passes, one moved further fails every
    candidate that splits; the others are not expandable."""
    from padic_dm import factorize
    oracle = factorize.spectral_radius_bruteforce
    m = from_operator(parse_operator(text, request.getfixturevalue(field)))

    def moved_up(s):
        def wrong(cmod, j, kmax):
            est = oracle(cmod, j, kmax=kmax)
            return replace(est, lv=est.lv + lv(s))
        return wrong

    monkeypatch.setattr(factorize, "spectral_radius_bruteforce",
                        moved_up(passes))
    assert decompose(m, 0, CTX).certificate.purity_ok
    monkeypatch.setattr(factorize, "spectral_radius_bruteforce",
                        moved_up(fails))
    with pytest.raises(CertificateFailure, match="'purity_ok': False") as err:
        decompose(m, 0, CTX)
    attempts = err.value.attempts
    assert len(attempts) == 6
    split = [msg for code, msg in attempts if code == "certificate-failure"]
    assert len(split) == expandable
    assert all("'purity_ok': False" in msg for msg in split)
    assert all(code == "not-expandable" for code, _msg in attempts
               if code != "certificate-failure")


# -- the chord contraction ------------------------------------------------


def _fresh_hensel(p, d_low, lv_t, ctx, right):
    """Reference contraction: the constant term of the cofactor is inverted
    afresh at every step."""
    from padic_dm.factorize import _init_low_factor
    from padic_dm.twisted import divmod_left, divmod_right
    q = _init_low_factor(p, d_low)
    for _ in range(ctx.max_iter + 1):
        cof, r = (divmod_right if right else divmod_left)(p, q)
        res = pi_norm(r, lv_t)
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
    of ``factorize._hensel`` before ``right``; the reduced operator carries
    ctx."""
    from padic_dm.factorize import _split_groups, reduce_operator
    p = reduce_operator(parse_operator(text, field), ctx)
    lvs = radii_from_polygon(p).support[::-1]
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
        cof, q, res = _hensel(p, d_low, lv_t, gap, right)
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
    _cof, _q, res = _hensel(*split, right)
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
    cof, q, _res = _hensel(*split, right)
    steps = _count_cofactor_inversions(monkeypatch, right,
                                       perturb=lambda z: z + z * 25)
    stale_cof, stale_q, res = _hensel(*split, right)
    assert steps == [0, 1]
    assert res >= LogVal(40)
    assert _same_at(40, q, stale_q) and _same_at(40, cof, stale_cof)

"""Acceptance suite: one test per criterion, one printed line per criterion.

Criteria 1-6 run over the Gauss p=5 field and are re-run over the
characteristic-zero Laurent field (criterion 10).  Run with ``pytest -s``
to see the pass/fail lines.
"""

import random
import time
from fractions import Fraction
from itertools import islice

import pytest

from padic_dm import (DiffModule, ExactDomain, FieldSpec, IterationBudget,
                      LogVal, NotExpandable, PrecisionCtx, PrecisionLoss,
                      TruncSeries, TwistedPoly,
                      biduality_transform, check_rationality, decompose,
                      divmod_left, divmod_right, dual,
                      factor_by_radii, hadamard_radius, linalg as la, mul,
                      mul_relation, multi_decompose, pi_norm, profile,
                      radii_from_polygon, reduce_operator, solution_matrix,
                      spectral_radius_bruteforce)
from padic_dm.diffmod import cyclic_presentations

from conftest import block_module, random_scalar, random_twisted

CTX = PrecisionCtx(Fraction(10), d=48, max_iter=80)

GAUSS = FieldSpec.gauss(5, ("x",))
LAURENT = FieldSpec.laurent("z")

FIELD_PARAMS = [
    pytest.param(GAUSS, "", id="gauss-p5"),
    pytest.param(LAURENT, " [rerun over laurent: criterion 10]", id="laurent"),
]

_collected_profiles = []  # criterion 9 pools every emitted profile


def report(tag, desc, ok, extra=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {tag}: {desc}{extra}"
    print(line)
    assert ok, line


def ring_corpus(field, npairs=200):
    rng = random.Random(101)
    pairs = []
    for _ in range(npairs):
        p = random_twisted(field, rng, max_deg=5, height=10)
        q = random_twisted(field, rng, max_deg=5, height=10)
        pairs.append((p, q))
    return pairs


_BLOCK_CACHE = {}


def block_corpus(field, count=50):
    if field not in _BLOCK_CACHE:
        rng = random.Random(202)
        corpus = []
        for i in range(count):
            nblocks = 2 if i % 2 == 0 else 3
            ks = [rng.randint(-3, 3) for _ in range(nblocks)]
            corpus.append(block_module(field, rng, ks))
        _BLOCK_CACHE[field] = corpus
    return _BLOCK_CACHE[field]


@pytest.mark.parametrize("field,note", FIELD_PARAMS)
def test_criterion_1_twisted_ring(field, note):
    t0 = time.monotonic()
    pairs = ring_corpus(field)
    for p, q in pairs:
        assert mul(p, q) == mul_relation(p, q)
        if not q.is_zero():
            d, r = divmod_right(p, q)
            assert mul(d, q) + r == p
            dl, rl = divmod_left(p, q)
            assert mul(q, dl) + rl == p
    rng = random.Random(103)
    for _ in range(100):
        a = random_twisted(field, rng, max_deg=3, height=6)
        b = random_twisted(field, rng, max_deg=3, height=6)
        c = random_twisted(field, rng, max_deg=3, height=6)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
    elapsed = time.monotonic() - t0
    report("1", "twisted-ring suite (200 pairs, 100 triples)",
           elapsed < 60, f" ({elapsed:.1f}s){note}")


@pytest.mark.parametrize("field,note", FIELD_PARAMS)
def test_criterion_2_norm_suite(field, note):
    lv_rk = field.lv_rK(0)
    weights = [lv_rk, lv_rk + Fraction(1, 4), lv_rk + Fraction(3, 4)]
    violations = 0
    for lv_t in weights:
        for p, q in ring_corpus(field, npairs=200):
            if p.is_zero() or q.is_zero():
                continue
            if not pi_norm(mul(p, q), lv_t) >= \
                    pi_norm(p, lv_t) + pi_norm(q, lv_t):
                violations += 1
    # exhaustive weight-inequality grid for indices <= 20
    for lv_t in weights:
        for h in range(21):
            for k in range(21):
                for j in range(k + 1):
                    i = h + k - j
                    lhs = lv_t * (i + j - k) - lv_rk * h
                    if not lhs >= LogVal(0):
                        violations += 1
    report("2", "norm suite (submultiplicativity + inequality grid)",
           violations == 0, f" ({violations} violations){note}")


@pytest.mark.parametrize("field,note", FIELD_PARAMS)
def test_criterion_3_radius_oracle(field, note):
    bad = []
    for m, expected in block_corpus(field):
        prof = profile(m, 0, check=False)
        if dict(prof.entries) != expected:
            bad.append(("profile", expected, dict(prof.entries)))
            continue
        est = spectral_radius_bruteforce(m, 0, kmax=60)
        if abs(prof.max_lv() - est.lv) > est.spread:
            bad.append(("oracle", str(prof.max_lv()), str(est.lv),
                        str(est.spread)))
        _collected_profiles.append((field, prof))
    report("3", "radius oracle agreement on 50 block modules",
           not bad, f" {bad[:3]}{note}")


def _chain_with_retry(m, ctx):
    last = None
    for p, _ in islice(cyclic_presentations(m, 0), 6):
        try:
            pa = reduce_operator(p, ctx)
            return pa, factor_by_radii(pa, ctx)
        except (NotExpandable, PrecisionLoss, IterationBudget) as exc:
            last = exc
    raise last


def _split_mid(lvs, i):
    return (lvs[i] + lvs[i + 1]) / 2


@pytest.mark.parametrize("field,note", FIELD_PARAMS)
def test_criterion_4_decomposition_certificates(field, note):
    t0 = time.monotonic()
    failures = []
    for idx, (m, expected) in enumerate(block_corpus(field)):
        dec = decompose(m, 0, CTX)          # raises on certificate failure
        got = {}
        for c in dec.components:
            got[c.key] = got.get(c.key, 0) + c.dim
        if sum(c.dim for c in dec.components) != m.dim or got != expected:
            failures.append((idx, "profile/dims"))
            continue
        for c in dec.components:
            sub = decompose(c.module, 0, CTX)
            if len(sub.components) != 1:
                failures.append((idx, "fixed-point"))
        if len(expected) > 1:
            # reconstruction at working precision: re-multiply each split
            pa, chain = _chain_with_retry(m, CTX)
            prev = pa
            for i, f in enumerate(chain.factors[:-1]):
                tail = chain.tails[i]
                resid = prev - mul(f, tail)
                lvres = pi_norm(resid, _split_mid(chain.lvs, i))
                if not lvres >= LogVal(10):
                    failures.append((idx, f"residual {lvres}"))
                prev = tail
    # exact-arithmetic reconstruction on >= 50 constructed products of
    # rank-1 factors with distinct radii: lift the returned factors and
    # re-multiply exactly
    rng = random.Random(303)
    exact_checked = 0
    while exact_checked < 50:
        nf = rng.choice([2, 2, 3])
        ks = rng.sample([-3, -2, -1, 1, 2, 3], nf)
        dom = ExactDomain(field)
        pi_el = field.scalar(5) if field.kind == "gauss" else field.var(0)
        facs = []
        for k in ks:
            c = pi_el ** k * rng.choice([1, 2, 3])
            if rng.random() < 0.5:
                c = c + field.var(0) * rng.randint(-2, 2)
            facs.append(TwistedPoly.from_list(dom, 0, [-c, 1]))
        p = facs[0]
        for f in facs[1:]:
            p = mul(p, f)
        prof = radii_from_polygon(p)
        if len(prof.entries) < 2:
            continue
        exact_checked += 1
        chain = factor_by_radii(p, CTX)
        prev = p
        for i, f in enumerate(chain.factors[:-1]):
            tail = chain.tails[i]
            resid = prev - mul(f.lift_exact(), tail.lift_exact())
            lvres = pi_norm(resid, _split_mid(chain.lvs, i))
            if not lvres >= LogVal(10):
                failures.append(("constructed", exact_checked,
                                 f"residual {lvres}"))
            prev = tail.lift_exact()
    elapsed = time.monotonic() - t0
    report("4", "decomposition certificates (block corpus + 50 constructed)",
           not failures and elapsed < 300,
           f" ({elapsed:.1f}s) {failures[:3]}{note}")


@pytest.mark.parametrize("field,note", FIELD_PARAMS)
def test_criterion_5_duality(field, note):
    ok = True
    for m, _expected in block_corpus(field):
        dm = dual(m)
        if profile(dm, 0, check=False) != profile(m, 0, check=False):
            ok = False
        ddm = dual(dm)
        for g1, g2 in zip(ddm.mats, m.mats):
            if not la.mat_equal(g1, g2):
                ok = False
    report("5", "duality suite (profile invariance, involution)", ok, note)


@pytest.mark.parametrize("field,note", FIELD_PARAMS)
def test_criterion_6_biduality(field, note):
    rng = random.Random(404)
    bad = 0
    for _ in range(100):
        v = TruncSeries.from_list(random_scalar(field, rng, deg=2)
                                  for _ in range(9))
        w = biduality_transform(biduality_transform(v, 0, 8), 0, 8)
        if not all((w.coeff(i) - v.coeff(i)).is_zero() for i in range(9)):
            bad += 1
    report("6", "biduality involution on 100 random vectors",
           bad == 0, f" ({bad} failures){note}")


def test_criterion_7_transfer():
    K = GAUSS
    dom = ExactDomain(K)
    bad = []
    for k in range(-3, 1):
        c = K.scalar(5) ** k
        m = DiffModule(dom, 1, [[[c]]])
        y = solution_matrix(m, 0, 40)
        est = hadamard_radius(y[0][0], (20, 40))
        expected = K.lv_omega - min(c.val(), K.lv_dsp(0))
        if abs(est.lv - expected) > Fraction(1, 20):
            bad.append((k, str(est.lv), str(expected)))
    report("7", "Dwork transfer for [p^k], k=-3..0, window end 40",
           not bad, f" {bad}")


def _rand_scalar_xy(field, rng, height=2):
    # nonzero unit constant terms keep the conjugated directions inside
    # the expandable subring of the approximation model
    x, y = field.var(0), field.var(1)
    return (field.scalar(rng.choice([1, 2, 3, -1]))
            + x * rng.randint(-height, height)
            + y * rng.randint(-height, height)
            + x * y * rng.randint(-1, 1))


def test_criterion_8_multi_derivation():
    K = FieldSpec.gauss(5, ("x", "y"))
    dom = ExactDomain(K)
    one, z = K.one(), K.zero()
    ctx = PrecisionCtx(Fraction(10), d=28, max_iter=80)
    base = DiffModule(dom, 2, [[[one / 5, z], [z, z]],
                               [[z, z], [z, one / 5]]])
    expected = [("1/4", "5/4"), ("5/4", "1/4")]
    rng = random.Random(505)
    variants = [base]
    for _ in range(10):
        w = la.identity(dom, 2)
        for _k in range(2):
            i, j = rng.sample([0, 1], 2)
            e = la.identity(dom, 2)
            e[i][j] = _rand_scalar_xy(K, rng)
            w = la.mat_mul(w, e)
        variants.append(base.change_basis(w))
    bad = []
    for n, m in enumerate(variants):
        dec = multi_decompose(m, ctx)
        keys = sorted(tuple(str(k) for k in c.key) for c in dec.components)
        if keys != expected or not dec.certificate.ok:
            bad.append((n, keys))
            continue
        for pos, j in enumerate((0, 1)):
            marg = {}
            for c in dec.components:
                marg[c.key[pos]] = marg.get(c.key[pos], 0) + c.dim
            single = profile(m, j, check=False)
            if marg != dict(single.entries):
                bad.append((n, "marginal", j))
            _collected_profiles.append((K, single))
    report("8", "multi-derivation keys and marginals (11 modules)",
           not bad, f" {bad[:3]}")


def test_criterion_9_rationality():
    # pools the profiles emitted by criteria 3 and 8; always also checks a
    # directly constructed interior profile
    checked = 0
    bad = 0
    for field, prof in _collected_profiles:
        rep = check_rationality(prof, field)
        checked += 1
        if not (rep.ok and rep.advisory_ok):
            bad += 1
    for field in (GAUSS, LAURENT):
        for m, _ in block_corpus(field)[:10]:
            rep = check_rationality(profile(m, 0, check=False), field)
            checked += 1
            if not (rep.ok and rep.advisory_ok):
                bad += 1
    report("9", "rationality advisory across emitted profiles",
           bad == 0 and checked > 0, f" ({checked} profiles)")

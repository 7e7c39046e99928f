"""The G_k recurrence on integer numerators against plain ``Scalar`` steps,
and the bounded oracle against the unbounded recurrence.

``diffmod.action_numerators`` runs G_{k+1} = d_j(G_k) + G_1 G_k as
G_k = H_k / delta^k on ``int``-coefficient polynomials, and the oracle reads
lv(G_k) = lv(H_k) - k lv(delta).  The first reference takes the same steps
on reduced ``Scalar`` fractions: each entry of G_{k+1} is one ``Scalar``,
the sum of ``Scalar`` derivatives and products over the lcm of their
denominators.  The second reads the estimate off every H_k stepped in
full, where the oracle steps H_k reduced below the edge its clip reads.
"""

import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from padic_dm import (INF, DiffModule, ExactDomain, FieldSpec, LogVal,
                      iterate_G, polys as P, spectral_radius_bruteforce)
from padic_dm.diffmod import (RadiusEstimate, action_matrices,
                              action_numerators)
from padic_dm.grammar import parse_matrix, parse_scalar
from padic_dm.scalarfield import GAUSS, Scalar

from conftest import block_module

FIELDS = (FieldSpec.gauss(5, ("x",)), FieldSpec.gauss(5, ("x", "y")),
          FieldSpec.laurent("z"))


def scalar_sum(terms, field):
    """The sum of ``Scalar``s, reduced once: their numerators over a common
    multiple of the denominators, grown as common * den / g for a common
    divisor g (which need not be the greatest).  Pairwise ``+`` would take
    a gcd of a numerator and a product of denominators per term."""
    terms = [x for x in terms if x]
    common = P.p_const(field.nvars, 1)
    for x in terms:
        g = P.p_gcd(common, x.den)[0]
        common = P.p_mul(common, P.p_divexact(x.den, g))
    num = {}
    for x in terms:
        num = P.p_add(num, P.p_mul(x.num, P.p_divexact(common, x.den)))
    return Scalar(field, num, common)


def reference_G(m, j, kmax):
    """G_0 .. G_kmax, stepped on ``Scalar``s."""
    g1, n, f = m.mat(j), m.dim, m.field
    one, zero = f.one(), f.zero()
    acc = [[one if a == b else zero for b in range(n)] for a in range(n)]
    out = [acc]
    for _ in range(kmax):
        acc = [[scalar_sum([acc[a][b].derive(j)]
                           + [g1[a][t] * acc[t][b] for t in range(n)], f)
                for b in range(n)] for a in range(n)]
        out.append(acc)
    return out


def window_estimate(field, j, sizes):
    """The oracle's estimate read off lv(G_0) .. lv(G_kmax)."""
    kmax = len(sizes) - 1
    lo = max(1, (kmax + 1) // 2)
    per_step = []
    for k, vk in enumerate(sizes):
        if k < lo:
            continue
        per_step.append(field.lv_omega - min(field.lv_dsp(j), vk / k))
    return RadiusEstimate(max(per_step), max(per_step) - min(per_step),
                          (lo, kmax))


def reference_estimate(field, j, gs):
    """The oracle's estimate read off G_0 .. G_kmax."""
    return window_estimate(field, j, [min(e.val() for row in g for e in row)
                                      for g in gs])


def numerator_lv(field):
    """The valuation of a nonzero int polynomial: its content's p-adic
    valuation (Gauss) or its lowest z-degree (Laurent)."""
    if field.kind == GAUSS:
        return lambda a: P.p_min_vp(a, field.p)
    return lambda a: P.p_min_exp(a, 0)


def numerator_estimate(m, j, kmax, trim=None):
    """The oracle's estimate read off H_0 .. H_kmax, stepped in full, or
    with ``trim`` applied at every step as the bounded oracle does."""
    lv = numerator_lv(m.field)
    delta, steps = action_numerators(m, j)
    sizes = []
    for k, h in enumerate(islice(steps(trim), kmax + 1)):
        vs = [lv(e) for row in h for e in row if e]
        sizes.append(LogVal(min(vs) - k * lv(delta)) if vs else INF)
    return window_estimate(m.field, j, sizes)


def denominators(field):
    """Constant, monomial and general denominators of the field."""
    x, c = field.var(0), field.scalar
    out = [c(1), c(5), c(25), x, x * x, c(5) * x,
           x + 1, c(5) * x + 1, x * x + 2, x * x + c(5)]
    if field.nvars == 2:
        y = field.var(1)
        out += [y, x + y + 1, c(5) * y + 1]
    return out


@st.composite
def modules(draw):
    field = draw(st.sampled_from(FIELDS))
    j = draw(st.integers(0, field.nvars - 1))
    n = draw(st.integers(1, 3))
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=6)
    monos = [field.one()] + [field.var(v) for v in range(field.nvars)]
    monos.append(monos[1] * monos[-1])
    # at most two denominators per module keeps lcm degrees at desk scale
    dens = [field.one()] + draw(st.lists(st.sampled_from(denominators(field)),
                                         min_size=1, max_size=2))

    def entry():
        if draw(st.integers(0, 3)) == 0:
            return field.zero()
        num = field.zero()
        for mono in monos:
            num = num + mono * draw(coeff)
        return num / draw(st.sampled_from(dens))

    g = [[entry() for _ in range(n)] for _ in range(n)]
    mats = [None] * field.nderiv
    mats[j] = g
    return DiffModule(ExactDomain(field), n, mats), j


@given(modules(), st.integers(1, 10), st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_numerator_recurrence_matches_scalar_steps(mj, kmax, k):
    m, j = mj
    ref = reference_G(m, j, max(kmax, k))
    assert list(islice(action_matrices(m, j), kmax + 1)) == ref[:kmax + 1]
    assert iterate_G(m, j, k) == ref[k]
    assert spectral_radius_bruteforce(m, j, kmax) == \
        reference_estimate(m.field, j, ref[:kmax + 1])


def corpus_modules():
    rng = random.Random(202)
    laurent = FieldSpec.laurent("z")
    m, _ = block_module(laurent, rng, [-3, 1, -2])
    field = FieldSpec.gauss(5, ("x",))
    x, c = field.var(0), field.scalar
    general = DiffModule(ExactDomain(field), 2,
                         [[[1 / (c(5) * x + 1), x], [c(0), c(1) / 5]]])
    return [m, general]


@pytest.mark.parametrize("m", corpus_modules(), ids=["laurent-block",
                                                     "gauss-5x+1"])
def test_oracle_builds_no_scalar_per_step(monkeypatch, m):
    """A silent fallback to ``Scalar`` steps would build scalars in
    proportion to kmax; the numerator recurrence builds a fixed number."""
    built = []
    init = Scalar.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Scalar, "__init__", counting_init)
    counts = []
    for kmax in (10, 40):
        built.clear()
        spectral_radius_bruteforce(m, 0, kmax)
        counts.append(len(built))
    assert counts[1] <= counts[0]


# The bounded-oracle draws: per field, its uniformizer and its poles on
# the unit circle (units of the norm, like x - 2).  A uniformizer power of
# 0 (Gauss) or at most 1 (Laurent) always gives the shortcut; higher
# powers can step.
BOUNDED = (
    (FIELDS[0], "5", ["x - 2", "x^2 + 2", "x + 1"]),
    (FIELDS[1], "5", ["x - 2", "y - 2", "x + y + 3"]),
    (FIELDS[2], "z", ["z - 2", "1 + z", "1 - 3*z^2"]),
)


@st.composite
def bounded_modules(draw):
    field, pi, poles = draw(st.sampled_from(BOUNDED))
    j = draw(st.integers(0, field.nvars - 1))
    n = draw(st.integers(1, 3))
    power = f"{pi}^{draw(st.sampled_from((2, 3, 1, 0)))}"
    pole = draw(st.sampled_from(poles))
    dens = ["1", power, pole, f"{power}*({pole})"]
    nums = ["0", "1", "-2", pi, *field.variables]

    def entry():
        return parse_scalar(f"({draw(st.sampled_from(nums))})"
                            f"/({draw(st.sampled_from(dens))})", field)

    mats = [None] * field.nderiv
    mats[j] = [[entry() for _ in range(n)] for _ in range(n)]
    return DiffModule(ExactDomain(field), n, mats), j


@given(bounded_modules(), st.integers(1, 30))
@settings(max_examples=120, deadline=None)
def test_bounded_oracle_matches_unbounded_recurrence(mj, kmax):
    m, j = mj
    assert spectral_radius_bruteforce(m, j, kmax) == \
        numerator_estimate(m, j, kmax)


# Each bound is tight.  On these modules the unbounded H_24 has valuation
# exactly E - 1, for E = 24 (lv(delta) + lv_dsp): 23 for 5^24 G_1 with
# G_1 = G_1^2 (Gauss), and a lowest term of z-degree 23 (Laurent).  Step 24
# sets the spread, so an edge one lower changes the estimate.
EDGE_MODULES = {"gauss": (FIELDS[0], "1,1/5;0,0"),
                "laurent": (FIELDS[2], "1/(2*z),1/z^2;0,1/(2*z)")}


@pytest.mark.parametrize("name", sorted(EDGE_MODULES))
def test_each_bound_reads_its_last_digit(name):
    field, text = EDGE_MODULES[name]
    m = DiffModule(ExactDomain(field), 2, [parse_matrix(text, field)])
    kmax, lv = 24, numerator_lv(field)
    delta, steps = action_numerators(m, 0)
    edge = kmax * (lv(delta) + field.lv_dsp(0))
    h = next(islice(steps(), kmax, None))
    assert min(lv(e) for row in h for e in row if e) == edge - 1
    est = spectral_radius_bruteforce(m, 0, kmax)
    assert est == numerator_estimate(m, 0, kmax)
    assert est != numerator_estimate(m, 0, kmax,
                                     lambda a: field.pi_trunc(a, edge - 1))

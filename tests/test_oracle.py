"""The G_k recurrence on integer numerators against plain ``Scalar`` steps.

``diffmod.action_numerators`` runs G_{k+1} = d_j(G_k) + G_1 G_k as
G_k = H_k / delta^k on ``int``-coefficient polynomials, and the oracle reads
lv(G_k) = lv(H_k) - k lv(delta).  The reference below takes the same steps
on reduced ``Scalar`` fractions: each entry of G_{k+1} is one ``Scalar``,
the sum of ``Scalar`` derivatives and products over the lcm of their
denominators.
"""

import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from padic_dm import (INF, DiffModule, ExactDomain, FieldSpec, iterate_G,
                      polys as P, spectral_radius_bruteforce)
from padic_dm.diffmod import RadiusEstimate, action_matrices
from padic_dm.scalarfield import Scalar

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


def reference_estimate(field, j, gs):
    """The oracle's estimate read off G_0 .. G_kmax."""
    kmax = len(gs) - 1
    lo = max(1, (kmax + 1) // 2)
    per_step = []
    for k, g in enumerate(gs):
        if k < lo:
            continue
        vk = min(e.val() for row in g for e in row)
        ratio = INF if vk.is_infinite else vk / k
        per_step.append(field.lv_omega - min(field.lv_dsp(j), ratio))
    values = [e.value for e in per_step]
    return RadiusEstimate(max(per_step), max(values) - min(values), (lo, kmax))


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

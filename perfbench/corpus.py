"""Seeded input generators for the benchmark workloads.

The block corpus and the multi-derivation variants reproduce the
generators of the acceptance suite draw for draw: at corpus seed 202 the
block corpus is the criterion 3/4 corpus, and at corpus seed 505 the
variants are the criterion 8 modules.  The library only ever sees the
modules these functions return.
"""

from __future__ import annotations

import random
from fractions import Fraction

from padic_dm import DiffModule, ExactDomain, FieldSpec, direct_sum
from padic_dm import linalg as la

GAUSS = FieldSpec.gauss(5, ("x",))
LAURENT = FieldSpec.laurent("z")
GAUSS_XY = FieldSpec.gauss(5, ("x", "y"))

# README jobs; `cli-cold` runs each in a fresh process.
README_JOBS = {
    "radii": ["--field", "gauss:p=5:vars=x", "--cmd", "radii",
              "--op", "T^2 - (1/5)*T + x"],
    "decompose": ["--field", "gauss:p=5:vars=x", "--cmd", "decompose",
                  "--op", "T^2 - (1/5)*T + x", "--precision", "N=10,d=48"],
    "multi-decompose": ["--field", "gauss:p=5:vars=x,y",
                        "--cmd", "multi-decompose", "--mat", "1/5,0;0,0",
                        "--mat", "0,0;0,1/5", "--precision", "N=10,d=28"],
    "verify": ["--field", "laurent:z", "--cmd", "verify",
               "--mat", "1/(z^3),0;0,1"],
}


def _random_scalar(field, rng, height=10, deg=1):
    x = field.var(0)
    out = field.scalar(rng.randint(-height, height))
    for d in range(1, deg + 1):
        out = out + field.scalar(rng.randint(-height, height)) * x ** d
    return out


def _uniformizer(field):
    return field.scalar(field.p) if field.kind == "gauss" else field.var(0)


def _unimodular_conjugator(field, rng, n):
    """Product of two random shears; det = 1."""
    dom = ExactDomain(field)
    w = la.identity(dom, n)
    for _ in range(2):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        e = la.identity(dom, n)
        e[i][j] = _random_scalar(field, rng, height=3)
        w = la.mat_mul(w, e)
    return w


def _block_module(field, rng, ks):
    """Conjugated direct sum of rank-1 blocks [pi^k * u].

    Returns (module, expected profile as {lv: multiplicity}).
    """
    dom = ExactDomain(field)
    units = [field.scalar(rng.choice([1, 2, 3])) for _ in ks]
    total = None
    expected = {}
    for k, u in zip(ks, units):
        c = _uniformizer(field) ** k * u
        block = DiffModule(dom, 1, [[[c]]])
        total = block if total is None else direct_sum(total, block)
        lv = field.lv_omega - min(c.val(), field.lv_dsp(0))
        expected[lv] = expected.get(lv, 0) + 1
    w = _unimodular_conjugator(field, rng, len(ks))
    return total.change_basis(w), expected


def block_corpus(field, seed: int, count: int) -> list:
    """First `count` modules of the acceptance block-corpus generator:
    2 or 3 (alternating) conjugated rank-1 blocks, exponents in -3..3."""
    rng = random.Random(seed)
    corpus = []
    for i in range(count):
        nblocks = 2 if i % 2 == 0 else 3
        ks = [rng.randint(-3, 3) for _ in range(nblocks)]
        corpus.append(_block_module(field, rng, ks))
    return corpus


def _shear_entry(field, rng, height=2):
    # unit constant terms keep the conjugated directions expandable
    x, y = field.var(0), field.var(1)
    return (field.scalar(rng.choice([1, 2, 3, -1]))
            + x * rng.randint(-height, height)
            + y * rng.randint(-height, height)
            + x * y * rng.randint(-1, 1))


def multi_variants(seed: int, count: int) -> list:
    """First `count` criterion-8 modules: diag(1/5, 0) / diag(0, 1/5) over
    Gauss p=5 in x, y, then conjugates by seeded products of two shears."""
    field = GAUSS_XY
    dom = ExactDomain(field)
    one, z = field.one(), field.zero()
    base = DiffModule(dom, 2, [[[one / 5, z], [z, z]],
                               [[z, z], [z, one / 5]]])
    rng = random.Random(seed)
    out = [base]
    while len(out) < count:
        w = la.identity(dom, 2)
        for _ in range(2):
            i, j = rng.sample([0, 1], 2)
            e = la.identity(dom, 2)
            e[i][j] = _shear_entry(field, rng)
            w = la.mat_mul(w, e)
        out.append(base.change_basis(w))
    return out[:count]


def multi_marginal(j: int) -> dict:
    """Profile of every variant for derivation j, read off the diagonal base
    module (conjugation does not change a profile)."""
    field = GAUSS_XY
    out: dict = {}
    for i in range(2):
        c = field.scalar(Fraction(1, 5)) if i == j else field.zero()
        lv = field.lv_omega - min(c.val(), field.lv_dsp(j))
        out[lv] = out.get(lv, 0) + 1
    return out

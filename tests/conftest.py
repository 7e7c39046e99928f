"""Shared fixtures and corpus builders."""

from __future__ import annotations

import math
from operator import add

import pytest

from padic_dm import (DiffModule, ExactDomain, FieldSpec, TwistedPoly,
                      direct_sum, linalg)


def schoolbook(a, b, dcap=math.inf):
    """Pairwise-loop product of two polynomial or digit dicts, keeping the
    terms of total degree <= dcap: the reference for the fast products."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(add, ma, mb))
            if sum(m) <= dcap:
                out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


@pytest.fixture(scope="session")
def gauss5():
    return FieldSpec.gauss(5, ("x",))


@pytest.fixture(scope="session")
def gauss5xy():
    return FieldSpec.gauss(5, ("x", "y"))


@pytest.fixture(scope="session")
def laurent():
    return FieldSpec.laurent("z")


def random_scalar(field, rng, height=10, deg=1, unit=False):
    """Random polynomial-plus-constant scalar of bounded height.

    With ``unit`` the constant term is kept away from the uniformizer so
    the value has valuation 0 and expands in the approximation ring.
    """
    x = field.var(0)
    c0 = rng.randint(1, height) if unit else rng.randint(-height, height)
    if unit and field.kind == "gauss" and c0 % field.p == 0:
        c0 += 1
    out = field.scalar(c0)
    for d in range(1, deg + 1):
        out = out + field.scalar(rng.randint(-height, height)) * x ** d
    return out


def random_twisted(field, rng, max_deg=5, height=10, deriv=0):
    dom = ExactDomain(field)
    deg = rng.randint(0, max_deg)
    coeffs = [random_scalar(field, rng, height) for _ in range(deg + 1)]
    if coeffs[-1].is_zero():
        coeffs[-1] = field.one()
    return TwistedPoly(dom, deriv, coeffs)


def uniformizer(field):
    return field.scalar(field.p) if field.kind == "gauss" else field.var(0)


def rank1_block(field, k, unit_c):
    """1x1 module [pi^k * u]."""
    dom = ExactDomain(field)
    c = uniformizer(field) ** k * unit_c
    return DiffModule(dom, 1, [[[c]]]), c


def unimodular_conjugator(field, rng, n, deg=1):
    """Product of two random elementary (shear) matrices; det = 1."""
    dom = ExactDomain(field)
    w = linalg.identity(dom, n)
    for _ in range(2):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        e = linalg.identity(dom, n)
        e[i][j] = random_scalar(field, rng, height=3, deg=deg)
        w = linalg.mat_mul(w, e)
    return w


def block_module(field, rng, ks, units=None):
    """Direct sum of rank-1 blocks, conjugated by a unimodular matrix.

    Returns (module, expected profile dict in log scale).
    """
    if units is None:
        units = [field.scalar(u) for u in
                 (rng.choice([1, 2, 3]) for _ in ks)]
    mods = []
    expected = {}
    for k, u in zip(ks, units):
        m, c = rank1_block(field, k, u)
        mods.append(m)
        lv = field.lv_omega - min(c.val(), field.lv_dsp(0))
        expected[lv] = expected.get(lv, 0) + 1
    total = mods[0]
    for m in mods[1:]:
        total = direct_sum(total, m)
    w = unimodular_conjugator(field, rng, len(ks))
    return total.change_basis(w), expected


def nilpotent_shear_pair(field):
    """(a, b) over a two-variable field: a is 3-dimensional with G_x =
    I - E_21 (the trivial module gauge transformed by the shear I - x E_21)
    and G_y = I, b is [1] for both.  The constant nilpotent part of
    a (+) b cancels the staircase (1, x, x^2, x^3) and every seeded
    degree-1 cyclic-vector candidate."""
    dom = ExactDomain(field)
    gx = linalg.identity(dom, 3)
    gx[2][1] = field.scalar(-1)
    one = [[field.one()]]
    return (DiffModule(dom, 3, [gx, linalg.identity(dom, 3)]),
            DiffModule(dom, 1, [one, one]))

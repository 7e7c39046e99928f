"""Truncated scalars: reduction, arithmetic, error tracking."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from padic_dm import (ApproxDomain, ApproxScalar, FieldSpec, NotExpandable,
                      PrecisionCtx, LogVal, precision, reduce_scalar)
from padic_dm.precision import _conv, _gauss_polymul

from conftest import schoolbook


def test_reduce_one(gauss5):
    r = reduce_scalar(gauss5.one(), PrecisionCtx(3), err_target=3)
    assert r.lift() == gauss5.one()


def test_reduce_geometric_series(gauss5):
    # 1/(1-x) expands to 1 + x + ... + x^d in the degree-capped ring
    K = gauss5
    ctx = PrecisionCtx(Fraction(2), d=4)
    r = reduce_scalar(K.one() / (K.one() - K.var(0)), ctx, err_target=2)
    assert r.shift == 0
    assert r.coeffs == {(k,): 1 for k in range(5)}
    assert r.err_lv >= 2


def test_reduce_negative_valuation(gauss5):
    # 1/5 is representable: the context stores a valuation offset
    r = reduce_scalar(gauss5.one() / 5, PrecisionCtx(3), err_target=3)
    assert r.shift == -1
    assert r.coeffs == {(0,): 1}
    assert r.val() == LogVal(-1)


def test_reduce_not_expandable(gauss5):
    with pytest.raises(NotExpandable):
        reduce_scalar(gauss5.one() / gauss5.var(0), PrecisionCtx(4))
    with pytest.raises(NotExpandable):
        # denominator x - 5 reduces to x mod 5: not a unit
        reduce_scalar(gauss5.one() / (gauss5.var(0) - 5), PrecisionCtx(4))


def test_roundtrip_valuation_accuracy(gauss5):
    K = gauss5
    x = K.var(0)
    ctx = PrecisionCtx(Fraction(8), d=24)
    for c in [K.scalar(7) / 3, x ** 2 / 25 + 2,
              (x + 1) / (K.one() + K.scalar(5) * x)]:
        r = reduce_scalar(c, ctx)
        # lifted representative agrees with c to the stated error
        assert (r.lift() - c).val() >= LogVal(r.err_lv) or (r.lift() - c).is_zero()


def test_arithmetic_and_inverse(gauss5):
    K = gauss5
    ctx = PrecisionCtx(Fraction(6), d=16)
    dom = ApproxDomain(K, ctx, 12)
    a = dom.coerce(K.scalar(7))
    b = dom.coerce(K.var(0) + 2)
    assert ((a + b) - a - b).is_precision_zero()
    assert (a * b - b * a).is_precision_zero()
    inv = b.inverse()
    assert (b * inv - 1).is_precision_zero()
    assert (a / a - 1).is_precision_zero()


def test_derive_tracks_error(gauss5, laurent):
    ctxg = PrecisionCtx(Fraction(6), d=8)
    g = reduce_scalar(gauss5.var(0) ** 3, ctxg, err_target=9)
    assert g.derive(0).err_lv == g.err_lv
    ctxl = PrecisionCtx(Fraction(4), d=8)
    z = reduce_scalar(laurent.one() / laurent.var(0), ctxl, err_target=7)
    dz = z.derive(0)
    assert dz.err_lv == z.err_lv - 1
    assert dz.lift() == (laurent.one() / laurent.var(0)).derive(0)


def test_laurent_reduce_window(laurent):
    z = laurent.var(0)
    ctx = PrecisionCtx(Fraction(5), d=6)
    r = reduce_scalar(laurent.one() / (laurent.one() - z), ctx, err_target=7)
    assert [r.coeffs.get((k,), 0) for k in range(7)] == [1] * 7
    assert r.err_lv == 7


def test_truncate_err(gauss5):
    K = gauss5
    ctx = PrecisionCtx(Fraction(10), d=8)
    small = reduce_scalar(K.scalar(5) ** 6, ctx, err_target=20)
    assert not small.is_precision_zero()
    assert small.truncate_err(6).is_precision_zero()
    assert not small.truncate_err(7).is_precision_zero()


def test_precision_zero_val_floor(gauss5):
    ctx = PrecisionCtx(Fraction(4), d=8)
    r = reduce_scalar(gauss5.zero(), ctx, err_target=4)
    assert r.is_precision_zero()
    assert r.val() == LogVal(4)
    assert r.val_exact() is None


def test_laurent_inverse_of_int_digits_is_exact(laurent):
    u = ApproxScalar(laurent, PrecisionCtx(4, d=4), 0, {(0,): 3, (1,): 1}, 5)
    inv = u.inverse()
    # 1/(3 + z) = sum_k (-1)^k z^k / 3^(k+1), as exact rationals
    assert inv.coeffs == {(k,): Fraction((-1) ** k, 3 ** (k + 1))
                          for k in range(5)}
    assert all(type(c) is Fraction for c in inv.coeffs.values())
    assert (u * inv - 1).is_precision_zero()


@st.composite
def conv_operands(draw):
    """Two digit dicts sharing nvars and digit type, some terms above dcap;
    digits mix 1-bit and ~200-bit sizes of either sign."""
    nvars = draw(st.sampled_from([1, 2]))
    dcap = draw(st.integers(0, 12))
    ints = st.one_of(st.integers(-1, 1), st.integers(-2 ** 200, 2 ** 200))
    if draw(st.booleans()):
        digit = st.builds(Fraction, ints,
                          st.one_of(st.integers(1, 6), st.integers(1, 2 ** 64)))
    else:
        digit = ints
    mono = st.tuples(*[st.integers(0, dcap + 3)] * nvars)
    operand = st.dictionaries(mono, digit, max_size=10)
    return draw(operand), draw(operand), dcap, nvars


@given(conv_operands(), st.booleans())
@example(({}, {(0,): 3, (2,): -1}, 4, 1), False)
@example(({(1,): Fraction(-1, 3)}, {(0,): Fraction(1, 2), (4,): 7}, 4, 1),
         False)
@example(({(0,): 1, (3,): -2 ** 200}, {(0,): 5, (1,): 1, (9,): 2}, 8, 1),
         False)
@example(({(0, 0): 2, (1, 0): -1}, {(0, 1): 3, (0, 0): 1}, 0, 2), True)
@settings(max_examples=300, deadline=None)
def test_conv_matches_schoolbook(case, packed):
    """``packed`` sends bivariate cases through the Kronecker branch."""
    a, b, dcap, nvars = case
    threshold = precision.KRONECKER_PAIRS
    precision.KRONECKER_PAIRS = 0 if packed else threshold
    try:
        got = _conv(a, b, dcap, nvars)
    finally:
        precision.KRONECKER_PAIRS = threshold
    assert {m: c for m, c in got.items() if c} == schoolbook(a, b, dcap)
    digit_types = {type(c) for c in (*a.values(), *b.values())}
    if len(digit_types) == 1:
        assert {type(c) for c in got.values()} <= digit_types


def _triangle(rng, top, keep, bits):
    """Digits on the monomials x^i y^j of total degree <= top, each kept
    with probability ``keep``; signed digits of 1 to ``bits`` bits."""
    out = {}
    for k in range(top + 1):
        for j in range(k + 1):
            if rng.random() < keep:
                out[(k - j, j)] = rng.choice([-1, 1]) * rng.randint(1, 2 ** bits)
    return out


@pytest.mark.parametrize("seed, top_a, keep_a, top_b, keep_b, bits", [
    (1, 28, 1.0, 28, 1.0, 90),      # dense triangles, Gauss-sized digits
    (2, 28, 1.0, 28, 0.5, 200),     # dense times half-dense
    (3, 28, 0.5, 28, 1.0, 1),
    (4, 32, 1.0, 32, 1.0, 200),     # terms up to degree dcap + 4
    (5, 0, 1.0, 30, 1.0, 150),      # one operand of degree 0
    (6, 30, 1.0, 0, 1.0, 150),
], ids=["dense", "dense-half", "half-dense", "above-cap", "degree-0-left",
        "degree-0-right"])
def test_bivariate_kronecker_matches_schoolbook(monkeypatch, seed, top_a,
                                                keep_a, top_b, keep_b, bits):
    rng = random.Random(seed)
    dcap = 28
    a = _triangle(rng, top_a, keep_a, bits)
    b = _triangle(rng, top_b, keep_b, bits)
    if 0 in (top_a, top_b):
        # a constant operand never has enough pairs for the packed product
        monkeypatch.setattr(precision, "KRONECKER_PAIRS", 0)
    else:
        bi = sorted((sum(m), m, c) for m, c in b.items())
        assert precision._pairs(a, bi, dcap) >= precision.KRONECKER_PAIRS
    calls = []
    kronecker = precision._kronecker
    monkeypatch.setattr(precision, "_kronecker",
                        lambda *args: calls.append(1) or kronecker(*args))
    got = _conv(a, b, dcap, 2)
    assert calls
    assert {m: c for m, c in got.items() if c} == schoolbook(a, b, dcap)


def _full_cap_inverse(u):
    """Reference Gauss inverse: ceil(log2(d + 1)) + 1 Newton steps, every
    one at the full degree cap d."""
    f, ctx = u.field, u.ctx
    v = int(u.val_exact().value)
    mod = f.p ** (u.err_lv - v)
    mono0 = (0,) * f.nvars
    z = {mono0: pow(u.coeffs[mono0], -1, mod)}
    for _ in range(max(1, math.ceil(math.log2(ctx.d + 1)) + 1)):
        uz = _gauss_polymul(u.coeffs, z, mod, ctx.d, f.nvars)
        e = {m: (-c) % mod for m, c in uz.items()}
        e[mono0] = (e.get(mono0, 0) + 2) % mod
        z = _gauss_polymul(z, e, mod, ctx.d, f.nvars)
    return ApproxScalar(f, ctx, -v, z, u.err_lv - 2 * v)


@pytest.mark.parametrize("nvars", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 7, 8, 28, 31, 32, 48])
def test_gauss_inverse_matches_full_cap_newton(nvars, d):
    K = FieldSpec.gauss(5, ("x", "y")[:nvars])
    ctx = PrecisionCtx(Fraction(10), d=d)
    rng = random.Random(100 * nvars + d)
    shift, err = rng.randint(-3, 3), 25
    mod = 5 ** (err - shift)
    mono0 = (0,) * nvars
    coeffs = {m: rng.randrange(mod)
              for m in itertools.product(range(d + 1), repeat=nvars)
              if sum(m) <= d}
    coeffs[mono0] = rng.randrange(1, 5) + 5 * rng.randrange(mod // 5)
    u = ApproxScalar(K, ctx, shift, coeffs, err)
    inv, ref = u.inverse(), _full_cap_inverse(u)
    assert inv.coeffs == ref.coeffs
    assert (inv.shift, inv.err_lv) == (ref.shift, ref.err_lv)
    assert (u * inv - 1).is_precision_zero()

"""Truncated scalars: reduction, arithmetic, error tracking."""

from fractions import Fraction
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from padic_dm import (ApproxDomain, ApproxScalar, NotExpandable, PrecisionCtx,
                      LogVal, reduce_scalar)
from padic_dm.precision import _conv


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


def schoolbook(a, b, dcap):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(add, ma, mb))
            if sum(m) <= dcap:
                out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


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


@given(conv_operands())
@example(({}, {(0,): 3, (2,): -1}, 4, 1))
@example(({(1,): Fraction(-1, 3)}, {(0,): Fraction(1, 2), (4,): 7}, 4, 1))
@example(({(0,): 1, (3,): -2 ** 200}, {(0,): 5, (1,): 1, (9,): 2}, 8, 1))
@settings(max_examples=300, deadline=None)
def test_conv_matches_schoolbook(case):
    a, b, dcap, nvars = case
    got = _conv(a, b, dcap, nvars)
    assert {m: c for m, c in got.items() if c} == schoolbook(a, b, dcap)
    digit_types = {type(c) for c in (*a.values(), *b.values())}
    if len(digit_types) == 1:
        assert {type(c) for c in got.values()} <= digit_types

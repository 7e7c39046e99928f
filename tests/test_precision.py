"""Truncated scalars: reduction, arithmetic, error tracking."""

import contextlib
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from padic_dm import (ApproxDomain, ApproxScalar, FieldMismatch, FieldSpec,
                      NotExpandable, PrecisionCtx, LogVal, Scalar,
                      parse_scalar, polys as P, precision, reduce_scalar)
from padic_dm.precision import _conv

from conftest import schoolbook
from test_scalarfield import pi_cases


def _digits(x):
    """Rational digits of an ApproxScalar: its int numerators over ``den``."""
    return {m: Fraction(c, x.den) for m, c in x.coeffs.items()}


def _laurent(field, ctx, shift, digits, err_lv):
    """A Laurent ApproxScalar of rational digits: their numerators over
    their common denominator."""
    den = math.lcm(*[Fraction(c).denominator for c in digits.values()])
    return ApproxScalar(field, ctx, shift,
                        {m: int(c * den) for m, c in digits.items()}, err_lv,
                        den)


def _assert_normal_form(x):
    """int digits over one positive int den with gcd(den, digits) = 1, no
    digit of total degree above the value's cap d, itself at most ctx.d
    (Laurent: equal to it), and the valuation in the shift (Gauss: den 1
    and digits of gcd prime to p; Laurent: a digit at exponent 0)."""
    assert type(x.den) is int and x.den > 0
    assert all(type(c) is int and c for c in x.coeffs.values())
    assert x.d <= x.ctx.d
    assert all(sum(m) <= x.d for m in x.coeffs)
    if not x.coeffs:
        assert x.den == 1
    elif x.field.kind == "gauss":
        assert x.den == 1
        assert math.gcd(*x.coeffs.values()) % x.field.p != 0
    else:
        assert math.gcd(x.den, *x.coeffs.values()) == 1
        assert (0,) in x.coeffs
    if x.field.kind == "laurent":
        assert x.d == x.ctx.d
        assert x.err_lv <= x.shift + x.ctx.d + 1   # the window


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
        reduce_scalar(gauss5.one() / gauss5.var(0), PrecisionCtx(4),
                      err_target=5)
    with pytest.raises(NotExpandable):
        # denominator x - 5 reduces to x mod 5: not a unit
        reduce_scalar(gauss5.one() / (gauss5.var(0) - 5), PrecisionCtx(4),
                      err_target=5)


def test_roundtrip_valuation_accuracy(gauss5):
    K = gauss5
    x = K.var(0)
    ctx = PrecisionCtx(Fraction(8), d=24)
    for c in [K.scalar(7) / 3, x ** 2 / 25 + 2,
              (x + 1) / (K.one() + K.scalar(5) * x)]:
        r = reduce_scalar(c, ctx, err_target=9)
        # lifted representative agrees with c to the stated error
        assert (r.lift() - c).val() >= LogVal(r.err_lv) or (r.lift() - c).is_zero()


def test_arithmetic_and_inverse(gauss5):
    K = gauss5
    ctx = PrecisionCtx(Fraction(6), d=16)
    dom = ApproxDomain(K, ctx, 12)
    a = dom.coerce(K.scalar(7))
    b = dom.coerce(K.var(0) + 2)
    assert ((a + b) - a - b).is_zero()
    assert (a * b - b * a).is_zero()
    inv = b.inverse()
    assert (b * inv - 1).is_zero()
    assert (a / a - 1).is_zero()


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


def test_constructor_caps_laurent_err_at_the_window(laurent):
    # the digit z^9 lies past the window of d = 4: the value knows 1 + z^9
    # only below z^5, as its reduction does
    ctx = PrecisionCtx(10, d=4)
    x = ApproxScalar(laurent, ctx, 0, {(0,): 1, (9,): 1}, 200)
    r = reduce_scalar(laurent.one() + laurent.var(0) ** 9, ctx, 200)
    assert (x.coeffs, x.err_lv) == (r.coeffs, r.err_lv) == ({(0,): 1}, 5)


def test_exact_operand_keeps_its_valuation_in_both_models(gauss5, laurent):
    # a product by an exact c gains v(c) digits of err_lv: p^2 in the
    # Gauss model, z^5 in the Laurent model
    ctx = PrecisionCtx(10, d=48)
    x = reduce_scalar(gauss5.one() + gauss5.var(0), ctx, 10)
    assert (x * 25).err_lv == 12
    z = laurent.var(0)
    y = reduce_scalar(laurent.one() + z, ctx, 10)
    assert (y * z ** 5).err_lv == 15


def test_truncate_err(gauss5):
    K = gauss5
    ctx = PrecisionCtx(Fraction(10), d=8)
    small = reduce_scalar(K.scalar(5) ** 6, ctx, err_target=20)
    assert not small.is_zero()
    assert small.truncate_err(6).is_zero()
    assert not small.truncate_err(7).is_zero()


@pytest.mark.parametrize("other", [FieldSpec.gauss(7).scalar(2),
                                   FieldSpec.laurent().var(0),
                                   FieldSpec.gauss(5, "y").scalar(2)],
                         ids=["gauss7", "laurent", "gauss5y"])
@pytest.mark.parametrize("op", [
    lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
    lambda a, b: a / b, lambda a, b: b + a, lambda a, b: b - a,
    lambda a, b: b * a, lambda a, b: b / a, lambda a, b: a == b,
    lambda a, b: b == a],
    ids=["add", "sub", "mul", "div", "radd", "rsub", "rmul", "rdiv", "eq",
         "req"])
def test_exact_operand_of_another_field_is_rejected(other, op):
    # reduced in its own field and combined digit by digit, an exact
    # scalar of another field would give 3 + 2 = 5 over Q_7, 3 + z = 8
    a = ApproxDomain(FieldSpec.gauss(5), PrecisionCtx(10, d=16), 10).coerce(3)
    with pytest.raises(FieldMismatch):
        op(a, other)
    assert a + FieldSpec.gauss(5).scalar(2) == 5


def test_precision_zero_val_floor(gauss5):
    ctx = PrecisionCtx(Fraction(4), d=8)
    r = reduce_scalar(gauss5.zero(), ctx, err_target=4)
    assert r.is_zero()
    assert r.val() == LogVal(4)


def test_laurent_inverse_of_int_digits_is_exact(laurent):
    u = ApproxScalar(laurent, PrecisionCtx(4, d=4), 0, {(0,): 3, (1,): 1}, 5)
    inv = u.inverse()
    # 1/(3 + z) = sum_k (-1)^k z^k / 3^(k+1), as exact rationals
    assert _digits(inv) == {(k,): Fraction((-1) ** k, 3 ** (k + 1))
                            for k in range(5)}
    # exact numerators over one exact denominator, never floats
    assert all(type(c) is int for c in (*inv.coeffs.values(), inv.den))
    assert (u * inv - 1).is_zero()


def _split_padic(poly, p):
    """poly = p^a * unit_rational * primitive_int_poly, min v_p = 0."""
    qs = poly.values()
    c = Fraction(math.gcd(*[q.numerator for q in qs]),
                 math.lcm(*[q.denominator for q in qs]))
    a = P.p_int_vp(c.numerator, p) - P.p_int_vp(c.denominator, p)
    return a, c / Fraction(p) ** a, {m: int(q / c) for m, q in poly.items()}


def _gauss_route(x, ctx, err_target):
    """Reference Gauss reduction: p-adic splits of numerator and
    denominator, the numerator's digits times the Newton inverse of the
    denominator's, times the unit ratio of the two contents."""
    f = x.field
    rnum, rden = x.rational_parts()
    an, un, num = _split_padic(rnum, f.p)
    ad, ud, den = _split_padic(rden, f.p)
    shift = an - ad
    me = err_target - shift
    if me <= 0:
        return ApproxScalar(f, ctx, shift, {}, err_target)
    mod = f.p ** me
    r = un / ud
    rm = (r.numerator % mod) * pow(r.denominator, -1, mod) % mod
    ncap = {m: c % mod for m, c in num.items() if sum(m) <= ctx.d}
    if P.p_is_const(x.den):
        digits = {m: (c * rm) % mod for m, c in ncap.items()}
        return ApproxScalar(f, ctx, shift, digits, err_target)
    if den.get((0,) * f.nvars, 0) % f.p == 0:
        raise NotExpandable(
            "denominator is not a unit of the approximation ring")
    inv = ApproxScalar(f, ctx, 0, {m: c % mod for m, c in den.items()
                                   if sum(m) <= ctx.d}, me).inverse()
    digits = f.pi_trunc(_conv(ncap, inv.coeffs, ctx.d, f.nvars), me)
    digits = {m: (c * rm) % mod for m, c in digits.items()}
    return ApproxScalar(f, ctx, shift + inv.shift, digits,
                        min(err_target, shift + inv.err_lv))


def _laurent_recurrence(x, ctx, err_target):
    """Reference Laurent reduction: the O(d^2) power-series recurrence
    out_k = (num_k - sum_{i=1..k} den_i out_{k-i}) / den_0, on the window
    of min(d, err_target - shift - 1) + 1 digits."""
    f = x.field
    rnum, rden = x.rational_parts()
    a = P.p_min_exp(rnum, 0)
    b = P.p_min_exp(rden, 0)
    shift = a - b
    num = {m[0] - a: c for m, c in rnum.items()}
    den = {m[0] - b: c for m, c in rden.items()}
    n = min(ctx.d, err_target - shift - 1)
    if n < 0:
        return ApproxScalar(f, ctx, shift, {}, err_target)
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        acc = num.get(k, Fraction(0))
        for i in range(1, k + 1):
            if i in den:
                acc -= den[i] * out[k - i]
        out[k] = acc / den[0]
    return _laurent(f, ctx, shift, {(k,): c for k, c in enumerate(out)},
                    min(err_target, shift + n + 1))


def _two_routes(x, ctx, err_target):
    """``reduce_scalar`` as it was: the zero check, then one route per
    model."""
    if x.is_zero():
        return ApproxScalar(x.field, ctx, 0, {}, err_target)
    route = _gauss_route if x.field.kind == "gauss" else _laurent_recurrence
    return route(x, ctx, err_target)


def _reduced(route, x, ctx, err_target):
    """(shift, digits, err_lv) of a reduction, or its NotExpandable."""
    try:
        r = route(x, ctx, err_target)
    except NotExpandable as exc:
        return "not-expandable", str(exc)
    _assert_normal_form(r)
    return r.shift, _digits(r), r.err_lv


# Denominators by kind: constant (the canonical form keeps them as an int
# den), monomial, and general; "x+5", "x^2+5" and "5*y+x" are not
# units of the Gauss expansion ring.
REDUCE_FIELDS = {
    "gauss1": (FieldSpec.gauss(5, ("x",)),
               ["1", "3", "25", "3/125", "x", "5*x^3",
                "x+1", "5*x+1", "x^2+2", "x^2+5", "x+5", "7*x^4-3*x+2"]),
    "gauss2": (FieldSpec.gauss(5, ("x", "y")),
               ["1", "2/5", "y", "x*y^2", "x+y+1", "5*y+1", "1+x+5*y^2",
                "5*y+x"]),
    "laurent": (FieldSpec.laurent("z"),
                ["1", "7", "2/9", "z", "3*z^2", "1+z", "2+z^2",
                 "z^2+3*z^3", "5*z-z^4+1/3"]),
}


@st.composite
def reduce_cases(draw):
    """A scalar num/den with a numerator of up to five terms whose
    coefficients carry powers of 5 and non-unit contents, a denominator of
    each kind, a degree cap d in 1..64 and an err target in -3..80."""
    field, dens = REDUCE_FIELDS[draw(st.sampled_from(sorted(REDUCE_FIELDS)))]
    coeff = st.builds(lambda a, b, k: Fraction(a, b) * Fraction(5) ** k,
                      st.integers(-50, 50).filter(bool), st.integers(1, 30),
                      st.integers(-3, 3))
    mono = st.tuples(*[st.integers(0, 6)] * field.nvars)
    num = draw(st.dictionaries(mono, coeff, max_size=5))
    den = parse_scalar(draw(st.sampled_from(dens)), field)
    x = sum((field.scalar(c) * Scalar(field, {m: 1}) for m, c in num.items()),
            field.zero()) / den
    ctx = PrecisionCtx(Fraction(10), d=draw(st.integers(1, 64)))
    return x, ctx, draw(st.integers(-3, 80))


@given(reduce_cases())
@example((parse_scalar("(3/5+x)/(1+x)", FieldSpec.gauss(5, ("x",))),
          PrecisionCtx(Fraction(10), d=8), 6))
@example((parse_scalar("(3*z+z^2)/(z+2*z^2)", FieldSpec.laurent("z")),
          PrecisionCtx(Fraction(10), d=3), 80))
@settings(max_examples=200, deadline=None)
def test_reduce_matches_the_model_routes(case):
    """The one ``reduce_scalar`` body against the two routes it replaced."""
    x, ctx, err = case
    assert (_reduced(reduce_scalar, x, ctx, err)
            == _reduced(_two_routes, x, ctx, err))


@st.composite
def conv_operands(draw):
    """Two int digit dicts sharing nvars, some terms above dcap; digits mix
    1-bit and ~200-bit sizes of either sign."""
    nvars = draw(st.sampled_from([1, 2]))
    dcap = draw(st.integers(0, 12))
    digit = st.one_of(st.integers(-1, 1), st.integers(-2 ** 200, 2 ** 200))
    mono = st.tuples(*[st.integers(0, dcap + 3)] * nvars)
    operand = st.dictionaries(mono, digit, max_size=10)
    return draw(operand), draw(operand), dcap, nvars


ROUTES = ("loop", "rows")


@contextlib.contextmanager
def forced_route(name):
    """Send every product through one route: bivariate ones through
    ``P._bi_<name>``, univariate ones through the pairwise loop for "loop"
    and through ``_kronecker`` otherwise."""
    route = getattr(P, f"_bi_{name}")
    with mock.patch.object(P, "_bi_route", lambda *shape: route), \
            mock.patch.object(P, "MUL_KRONECKER_PAIRS",
                              math.inf if name == "loop" else 0):
        yield


@given(conv_operands(), st.sampled_from(ROUTES))
@example(({}, {(0,): 3, (2,): -1}, 4, 1), "loop")
@example(({(0,): 1, (3,): -2 ** 200}, {(0,): 5, (1,): 1, (9,): 2}, 8, 1),
         "loop")
@example(({(0, 0): 2, (1, 0): -1}, {(0, 1): 3, (0, 0): 1}, 0, 2), "rows")
@settings(max_examples=300, deadline=None)
def test_conv_matches_schoolbook(case, route):
    """``route`` sends every case through one route of ``_conv`` and of the
    exact product ``P.p_mul``, which shares them: with no degree cap, and
    no zero coefficients in its result."""
    a, b, dcap, nvars = case
    a_poly, b_poly = ({m: c for m, c in d.items() if c} for d in (a, b))
    with forced_route(route):
        got = _conv(a, b, dcap, nvars)
        exact = P.p_mul(a_poly, b_poly)
    assert {m: c for m, c in got.items() if c} == schoolbook(a, b, dcap)
    assert all(type(c) is int for c in got.values())
    assert exact == schoolbook(a, b)


def _triangle(rng, top, keep, bits):
    """Digits on the monomials x^i y^j of total degree <= top, each kept
    with probability ``keep``; signed digits of 1 to ``bits`` bits."""
    out = {}
    for k in range(top + 1):
        for j in range(k + 1):
            if rng.random() < keep:
                out[(k - j, j)] = rng.choice([-1, 1]) * rng.randint(1, 2 ** bits)
    return out


def _assert_routes_match_schoolbook(a, b, dcap):
    """Each route of ``p_mul_bi`` gives the capped schoolbook product, and
    each route of ``P.p_mul`` the uncapped one."""
    want = schoolbook(a, b, dcap)
    exact = schoolbook(a, b)
    for route in ROUTES:
        with forced_route(route):
            got = P.p_mul_bi(a, b, dcap)
            assert {m: c for m, c in got.items() if c} == want, route
            assert P.p_mul(a, b) == exact, route


@pytest.mark.parametrize("seed, top_a, keep_a, top_b, keep_b, bits", [
    (1, 28, 1.0, 28, 1.0, 90),      # dense triangles, Gauss-sized digits
    (2, 28, 1.0, 28, 0.5, 200),     # dense times half-dense
    (3, 28, 0.5, 28, 1.0, 1),
    (4, 32, 1.0, 32, 1.0, 200),     # terms up to degree dcap + 4
    (5, 0, 1.0, 30, 1.0, 150),      # one operand of degree 0
    (6, 30, 1.0, 0, 1.0, 150),
], ids=["dense", "dense-half", "half-dense", "above-cap", "degree-0-left",
        "degree-0-right"])
def test_bivariate_kronecker_matches_schoolbook(seed, top_a, keep_a, top_b,
                                                keep_b, bits):
    rng = random.Random(seed)
    _assert_routes_match_schoolbook(_triangle(rng, top_a, keep_a, bits),
                                    _triangle(rng, top_b, keep_b, bits), 28)


def _rows(rng, xs, ys, bits=40):
    """Digits on x^i y^j for i in xs and j in ys, of either sign."""
    return {(i, j): rng.choice([-1, 1]) * rng.randint(1, 2 ** bits)
            for i in xs for j in ys}


ROW_SHAPES = {
    # x-degrees with gaps; b's rows start above y-degree 0
    "x-gaps": lambda rng: (_rows(rng, [0, 3, 7, 12], range(10)),
                           _rows(rng, [1, 2, 9], range(4, 16))),
    "single-row": lambda rng: (_rows(rng, [5], range(3, 20)),
                               _rows(rng, [2], range(12))),
    "x-only": lambda rng: (_rows(rng, range(25), [0]),
                           _rows(rng, range(0, 30, 2), [0])),
    "y-only": lambda rng: (_rows(rng, [0], range(25)),
                           _rows(rng, [0], range(1, 30, 3))),
    # most terms above the cap, and rows whose first digit is past it
    "above-cap": lambda rng: (_rows(rng, range(0, 40, 3), range(5, 35, 2)),
                              _rows(rng, range(20), [0, 9, 17, 26])),
    # a on the line of total degree 28: only b's constant term meets it
    "top-line": lambda rng: ({(i, 28 - i): i - 40 for i in range(29)},
                             _rows(rng, range(29), range(28))),
}


@pytest.mark.parametrize("shape", ROW_SHAPES)
def test_bivariate_routes_match_schoolbook_on_row_shapes(shape):
    rng = random.Random(shape)
    a, b = ROW_SHAPES[shape](rng)
    _assert_routes_match_schoolbook(a, b, 28)


@pytest.mark.parametrize("bits", [1, 2, 3, 4, 33])
@pytest.mark.parametrize("sign", [1, -1])
def test_bivariate_routes_at_the_slot_width_bound(bits, sign):
    """Full triangles of digits +-(2^bits - 1): the product digits reach
    about 225 * 2^(2*bits), near the slot width of ``P._slot_bytes``, so
    slots one byte narrower overflow for 3 of the 4 residues of the width
    mod 8 that ``bits`` 1..4 give."""
    top = 2 ** bits - 1
    a = {(k - j, j): top for k in range(29) for j in range(k + 1)}
    b = {m: sign * top for m in a}
    _assert_routes_match_schoolbook(a, b, 28)


@pytest.mark.parametrize("na, nb, route", [
    (45, 45, "loop"),               # below ROW_PAIRS term pairs
    (46, 46, "rows"),
    (435, 435, "rows"),             # dense triangles at d = 28 and 64
    (2145, 2145, "rows"),
    (66, 2080, "rows"),
    (20301, 20301, "rows"),         # a full triangle of degree 200
])
def test_bivariate_route_depends_on_shape(na, nb, route):
    assert P._bi_route(na, nb) is getattr(P, f"_bi_{route}")


@pytest.mark.parametrize("mono", [((0, 0), 7), ((2, 3), -5), ((20, 15), 3)],
                         ids=["degree-0", "degree-5", "above-cap"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_single_term_bivariate_operand_is_scaled(monkeypatch, mono, side):
    # a single-term operand scales the other below the cap in one pass:
    # neither route of _bi_route is called
    calls = []
    for name in ("_bi_loop", "_bi_rows"):
        route = getattr(P, name)
        monkeypatch.setattr(P, name, lambda *args, name=name, route=route:
                            calls.append(name) or route(*args))
    other = _triangle(random.Random(side), 36, 0.7, 40)   # above the cap 28
    other[(1, 1)] = 0                                   # a zero digit
    a, b = {mono[0]: mono[1]}, other
    if side == "right":
        a, b = b, a
    got = P.p_mul_bi(a, b, 28)
    assert calls == []
    assert {m: c for m, c in got.items() if c} == schoolbook(a, b, 28)


def _full_cap_inverse(u):
    """Reference inverse: ceil(log2(d + 1)) + 1 Newton steps, every one at
    the full degree cap d (Gauss digits mod p^(err_lv - v); exact Laurent
    rational digits, multiplied by ``schoolbook``)."""
    f, ctx = u.field, u.ctx
    v = int(u.val())
    mono0 = (0,) * f.nvars
    if f.kind == "gauss":
        mod, digits = f.p ** (u.err_lv - v), u.coeffs
        z = {mono0: pow(digits[mono0], -1, mod)}
        build = ApproxScalar

        def mul(a, b):
            return f.pi_trunc(_conv(a, b, ctx.d, f.nvars), u.err_lv - v)
    else:
        mod, digits = None, _digits(u)
        z = {mono0: 1 / digits[mono0]}
        build = _laurent

        def mul(a, b):
            return schoolbook(a, b, ctx.d)
    for _ in range(max(1, math.ceil(math.log2(ctx.d + 1)) + 1)):
        e = {m: -c for m, c in mul(digits, z).items()}
        e[mono0] = e.get(mono0, 0) + 2
        if mod is not None:
            e = {m: c % mod for m, c in e.items()}
        z = mul(z, e)
    return build(f, ctx, -v, z, u.err_lv - 2 * v)


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
    assert (inv.shift, inv.err_lv, inv.den) == (ref.shift, ref.err_lv, 1)
    assert (u * inv - 1).is_zero()


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "Fraction"])
@pytest.mark.parametrize("d", [1, 2, 7, 8, 31, 32, 48])
def test_laurent_inverse_matches_recurrence(laurent, d, fractions):
    ctx = PrecisionCtx(Fraction(10), d=d)
    rng = random.Random(10 * d + fractions)
    shift = rng.choice([-3, -2, -1, 1, 2, 3])
    err = shift + d + 1   # the full window: every digit up to z^d counts

    def digit():
        n = rng.randint(-9, 9)
        return Fraction(n, rng.randint(1, 7)) if fractions else n

    coeffs = {(k,): digit() for k in range(2, d + 1) if rng.random() < 0.7}
    coeffs[(1,)] = digit() or 1   # so every digit of the inverse is live
    coeffs[(0,)] = rng.choice([-1, 1]) * (Fraction(rng.randint(1, 9),
                                                     rng.randint(1, 7))
                                          if fractions else rng.randint(1, 9))
    u = _laurent(laurent, ctx, shift, coeffs, err)
    assert _digits(u) == {m: c for m, c in coeffs.items() if c}
    inv = u.inverse()
    # digits, shift and err_lv of the power-series recurrence
    assert _ref(inv) == _ref_inverse(_ref(u), d)
    assert (u * inv - 1).is_zero()


@pytest.mark.parametrize("d", [1, 7, 32, 48])
@pytest.mark.parametrize("window", [1, 2, 5, 17, 33, 60])
def test_laurent_inverse_stops_at_its_window(laurent, monkeypatch, d,
                                             window):
    """Only the digits below z^(err_lv - v) of a Laurent inverse survive
    the normal form, so Newton stops there: the same digits, shift and
    err_lv as at the full cap d, from products capped below the window."""
    ctx = PrecisionCtx(Fraction(10), d=d)
    rng = random.Random(100 * d + window)
    shift = rng.choice([-3, 0, 2])
    coeffs = {(k,): Fraction(rng.randint(-9, 9), rng.randint(1, 7))
              for k in range(1, d + 1)}
    coeffs[(0,)] = Fraction(rng.randint(1, 9), rng.randint(1, 7))
    u = _laurent(laurent, ctx, shift, coeffs, shift + window)
    caps = []

    def capped(a, b, dcap, nvars):
        caps.append(dcap)
        return _conv(a, b, dcap, nvars)

    monkeypatch.setattr(precision, "_conv", capped)
    inv = u.inverse()
    monkeypatch.undo()
    ref = _full_cap_inverse(u)
    assert _digits(inv) == _digits(ref)
    assert (inv.shift, inv.err_lv) == (ref.shift, ref.err_lv)
    assert max(caps, default=0) == min(d, window - 1)


def _scanned_val(x):
    """Valuation read off every digit, as before the normal form was
    trusted: min v_p over the digits (Gauss), lowest exponent (Laurent);
    err_lv when there are none."""
    if not x.coeffs:
        return LogVal(x.err_lv)
    if x.field.kind == "gauss":
        return LogVal(x.shift + min(P.p_int_vp(c, x.field.p)
                                    for c in x.coeffs.values()))
    return LogVal(x.shift + min(m[0] for m in x.coeffs))


@st.composite
def raw_values(draw):
    """An ApproxScalar built from unnormalized parts: random shift, digits
    (Gauss: signed multiples of random powers of p, some above the degree
    cap) and err_lv, on Gauss in one or two variables or on Laurent."""
    field, d = draw(fields_and_caps())
    return _draw_raw(draw, field, d)


def fields_and_caps():
    return st.tuples(st.sampled_from([FieldSpec.gauss(5, ("x",)),
                                      FieldSpec.gauss(5, ("x", "y")),
                                      FieldSpec.laurent("z")]),
                     st.integers(1, 6))


def _draw_raw(draw, field, d, empty=False):
    shift = draw(st.integers(-6, 4))
    err = shift + draw(st.integers(-1, 12))
    mono = st.tuples(*[st.integers(0, d + 2)] * field.nvars)
    if field.kind == "gauss":
        digit = st.builds(lambda a, b: 5 ** a * b, st.integers(0, 6),
                          st.integers(-10 ** 6, 10 ** 6))
    else:
        digit = st.one_of(st.integers(-9, 9),
                          st.builds(Fraction, st.integers(-9, 9),
                                    st.integers(1, 9)))
    coeffs = {} if empty else draw(st.dictionaries(mono, digit, max_size=8))
    build = ApproxScalar if field.kind == "gauss" else _laurent
    return build(field, PrecisionCtx(Fraction(10), d=d), shift, coeffs, err)


@st.composite
def sum_operands(draw):
    """Two raw values of one field and degree cap, the second one with no
    digits in about half of the cases."""
    field, d = draw(fields_and_caps())
    return (_draw_raw(draw, field, d),
            _draw_raw(draw, field, d, empty=draw(st.booleans())))


@given(raw_values())
@settings(max_examples=300, deadline=None)
def test_normal_form_carries_the_valuation(x):
    assert x.val() == _scanned_val(x)
    _assert_normal_form(x)


@given(raw_values())
@settings(max_examples=300, deadline=None)
def test_times_one_keeps_the_representation(x):
    """x * 1 == x in digits, den, shift and err_lv for every valuation,
    which twisted.mul relies on when it skips its multiplications by
    comb(h, j) == 1: an exact constant loses nothing.  Laurent values lie
    in their window err_lv <= shift + d + 1 from construction on."""
    if x.field.kind == "laurent" and x.err_lv > x.shift + x.ctx.d + 1:
        x = x.truncate_err(x.shift + x.ctx.d + 1)
    if not x.coeffs:
        return
    y = x * 1
    assert (y.coeffs, y.den, y.shift, y.err_lv) == (x.coeffs, x.den, x.shift,
                                                     x.err_lv)


@given(sum_operands())
@settings(max_examples=300, deadline=None)
def test_sum_with_an_empty_operand_takes_the_general_result(ab):
    """With an operand that has no digits, ``+`` gives the general route's
    shift, digits, den and err_lv: it returns the partner only where they
    agree."""
    a, b = ab
    for x, y in ((a, b), (b, a)):
        want = x._add(y)
        got = x + y
        assert (got.shift, got.coeffs, got.den, got.err_lv) == \
            (want.shift, want.coeffs, want.den, want.err_lv)


def _rep(x):
    return x.shift, x.coeffs, x.err_lv, x.den


@st.composite
def unit_cases(draw):
    """A raw value x, zero at precision in about half of the cases (Laurent
    values often from raw err_lv above their window), and the exact unit of
    its field at an err_lv from two below to two above x's relative
    precision err_lv - shift (at least 1, so that it has its digit)."""
    field, d = draw(fields_and_caps())
    x = _draw_raw(draw, field, d, empty=draw(st.booleans()))
    err = max(x.err_lv - x.shift + draw(st.integers(-2, 2)), 1)
    return x, ApproxScalar(field, x.ctx, 0, {(0,) * field.nvars: 1}, err)


@given(unit_cases())
@example((ApproxScalar(FieldSpec.laurent("z"), PrecisionCtx(10, d=2), 0,
                       {(0,): 2, (1,): 3}, 9),
          ApproxScalar(FieldSpec.laurent("z"), PrecisionCtx(10, d=2), 0,
                       {(0,): 1}, 9)))
@settings(max_examples=300, deadline=None)
def test_products_by_the_unit_take_the_general_result(case):
    """x * 1, 1 * x and the inverse of 1 give the shift, digits, err_lv and
    den of the general route, which runs when the unit is not recognized:
    the rule returns an operand only where they agree (the example's raw
    err_lv 9 lies outside its window, which the constructor caps to 3)."""
    x, one = case
    assert one._is_one()
    got = [_rep(x * one), _rep(one * x), _rep(one.inverse())]
    with mock.patch.object(ApproxScalar, "_is_one", lambda self: False):
        want = [_rep(x * one), _rep(one * x), _rep(one.inverse())]
    assert got == want


@given(sum_operands())
@settings(max_examples=300, deadline=None)
def test_difference_is_the_sum_of_the_negation(ab):
    """x - y has the shift, digits, den and err_lv of x + (-y), also with an
    operand that has no digits."""
    a, b = ab
    for x, y in ((a, b), (b, a)):
        _assert_normal_form(x - y)
        assert _rep(x - y) == _rep(x + (-y))


def test_sum_with_zero_returns_the_other_operand(gauss5, laurent):
    for field in (gauss5, laurent):
        dom = ApproxDomain(field, PrecisionCtx(Fraction(10), d=8), 10)
        x = dom.coerce(field.var(0) + 1)
        assert x + dom.zero() is x and dom.zero() + x is x


# -- Laurent values against a Fraction-digit reference ------------------------
#
# A reference value is (shift, {exponent: Fraction digit}, err_lv): the
# Laurent model as it was with one ``Fraction`` per digit.  Each function
# below is that model's operation; ``ApproxScalar`` must give the same
# rational digits, shift and err_lv, in its normal form.


def _ref(x):
    return x.shift, {m[0]: c for m, c in _digits(x).items()}, x.err_lv


def _ref_normal(shift, digits, err, d):
    """Keep the digits at exponents <= d below z^(err - shift); move the
    lowest one to exponent 0."""
    dd = {e: c for e, c in digits.items() if c and e <= d and shift + e < err}
    lo = min(dd, default=0)
    return shift + lo, {e - lo: c for e, c in dd.items()}, err


def _ref_add(a, b, d):
    s = min(a[0], b[0])
    out = {}
    for shift, digits, _err in (a, b):
        for e, c in digits.items():
            out[e + shift - s] = out.get(e + shift - s, 0) + c
    return _ref_normal(s, out, min(a[2], b[2], s + d + 1), d)


def _ref_neg(a):
    return a[0], {e: -c for e, c in a[1].items()}, a[2]


def _ref_mul(a, b, d):
    s, err = a[0] + b[0], a[2] + b[2]
    if a[1]:
        err = min(err, a[0] + b[2])
    if b[1]:
        err = min(err, b[0] + a[2])
    out = {}
    for ea, ca in a[1].items():
        for eb, cb in b[1].items():
            if ea + eb <= d:
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return _ref_normal(s, out, min(err, s + d + 1), d)


def _ref_inverse(a, d):
    """The O(d^2) power-series recurrence inv_k = -(sum_{i=1..k} u_i
    inv_{k-i}) / u_0 over exact rationals, on the window of the inverse."""
    v, digits, err = a
    top = min(d, err - v - 1)
    inv = {0: 1 / digits[0]}
    for k in range(1, top + 1):
        inv[k] = -sum(digits.get(i, 0) * inv[k - i]
                      for i in range(1, k + 1)) / digits[0]
    return _ref_normal(-v, inv, err - 2 * v, d)


def _ref_derive(a, d):
    v, digits, err = a
    return _ref_normal(v - 1, {e: c * (v + e) for e, c in digits.items()},
                       err - 1, d)


def _ref_lift(a, field):
    z = field.var(0)
    return sum((field.scalar(c) * z ** (a[0] + e) for e, c in a[1].items()),
               field.zero())


@st.composite
def laurent_cases(draw):
    """Two Laurent values from raw rational digits (small and ~60-bit
    numerators and denominators), a degree cap d in 1..12, a nonzero exact
    constant and a new error bound."""
    d = draw(st.integers(1, 12))
    num = st.one_of(st.integers(-9, 9), st.integers(-2 ** 60, 2 ** 60))
    den = st.one_of(st.integers(1, 12), st.integers(1, 2 ** 60))
    digit = st.builds(Fraction, num, den)

    def raw():
        shift = draw(st.integers(-6, 4))
        digits = draw(st.dictionaries(st.integers(0, d + 2), digit,
                                      max_size=8))
        return shift, digits, shift + draw(st.integers(-1, d + 3))

    constant = draw(digit.filter(bool))
    return d, raw(), raw(), constant, draw(st.integers(-8, 16))


@given(laurent_cases())
@example((3, (0, {0: Fraction(1, 2), 1: Fraction(1, 3)}, 4),
          (-2, {0: Fraction(-2, 3), 2: Fraction(4, 9)}, 1), Fraction(3, 2), 2))
@settings(max_examples=300, deadline=None)
def test_laurent_ops_match_fraction_reference(laurent, case):
    d, a, b, c, t = case
    ctx = PrecisionCtx(Fraction(10), d=d)
    x, y = (_laurent(laurent, ctx, s, {(e,): v for e, v in g.items()}, err)
            for s, g, err in (a, b))
    rx, ry = (_ref_normal(s, g, min(err, s + d + 1), d)
              for s, g, err in (a, b))
    checks = [(x, rx), (y, ry),
              (x + y, _ref_add(rx, ry, d)),
              (x - y, _ref_add(rx, _ref_neg(ry), d)),
              (-x, _ref_neg(rx)),
              (x * y, _ref_mul(rx, ry, d)),
              (x.derive(0), _ref_derive(rx, d)),
              (x.truncate_err(t), _ref_normal(rx[0], rx[1], min(t, rx[2]), d))]
    if x.coeffs:
        checks.append((x.inverse(), _ref_inverse(rx, d)))
    if x.coeffs and x.err_lv <= x.shift + d + 1:
        # an exact constant keeps the bound of x in a sum and a product
        checks.append((x * c, _ref_normal(rx[0], {e: v * c for e, v in
                                                  rx[1].items()}, rx[2], d)))
        checks.append((x + c, _ref_add(rx, (0, {0: c}, math.inf), d)))
    for got, want in checks:
        _assert_normal_form(got)
        assert _ref(got) == want
    assert x.lift() == _ref_lift(rx, laurent)


# -- per-value degree caps ------------------------------------------------------
#
# A Gauss value cut by ``truncate_err(err, degree)`` keeps the lower degree
# cap: the results it enters compute only the digits up to the smaller cap
# of their operands, and those digits are the ones the full-cap result has.


def _known(x):
    """What a value states: its digits, error, den and cap; the shift when
    there are digits (a value with none has no valuation of its own)."""
    return x.shift if x.coeffs else None, x.coeffs, x.err_lv, x.den, x.d


def _assert_agree_to(got, full, c):
    """got has cap c, and its digits of degree <= c are full's, at the
    error both know."""
    _assert_normal_form(got)
    assert got.d == c
    e = min(got.err_lv, full.err_lv)
    assert _known(got.truncate_err(e)) == _known(full.truncate_err(e, c))


@st.composite
def capped_gauss_pairs(draw):
    """Two raw Gauss values in one or two variables at one ctx, and a cap
    from 0 to d for each."""
    field = draw(st.sampled_from([FieldSpec.gauss(5, ("x",)),
                                  FieldSpec.gauss(5, ("x", "y"))]))
    d = draw(st.integers(1, 6))
    x, y = _draw_raw(draw, field, d), _draw_raw(draw, field, d)
    return x, y, draw(st.integers(0, d)), draw(st.integers(0, d))


@given(capped_gauss_pairs())
@example((ApproxScalar(FieldSpec.gauss(5, ("x",)), PrecisionCtx(10, d=4), 0,
                       {(0,): 1, (2,): 3, (4,): 1}, 6),
          ApproxScalar(FieldSpec.gauss(5, ("x",)), PrecisionCtx(10, d=4), 0,
                       {(0,): 2, (1,): 1, (3,): 4}, 6), 1, 3))
@settings(max_examples=300, deadline=None)
def test_cut_values_keep_their_cap(case):
    x, y, cx, cy = case
    xc, yc = x.truncate_err(x.err_lv, cx), y.truncate_err(y.err_lv, cy)
    assert (xc.d, yc.d) == (cx, cy)
    c = min(cx, cy)
    _assert_agree_to(xc + yc, x + y, c)
    _assert_agree_to(xc - yc, x - y, c)
    _assert_agree_to(xc * yc, x * y, c)
    _assert_agree_to(xc + 1, x + 1, cx)
    _assert_agree_to(yc * 3, y * 3, cy)
    if x.is_invertible():
        _assert_agree_to(xc.inverse(), x.inverse(), cx)
    for j in range(x.field.nvars):
        # d/dx_j keeps the cap, and the digit at the cap is junk
        got = xc.derive(j)
        assert got.d == cx
        if cx:
            _assert_agree_to(got.truncate_err(got.err_lv, cx - 1),
                             x.derive(j), cx - 1)


def _cut(digits, d):
    """precision's degree cut on raw digits, as the public constructor
    applies it."""
    return precision._digits_to(digits, None, d)


@given(pi_cases(), st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_degree_cut_is_a_ring_map(case, d):
    """The cut at total degree d, alone and followed by the truncation below
    pi^k, commutes with sums and products of int polynomials: the quotient
    that the public constructor maps raw digits into."""
    field, a, b, k = case
    for t in (lambda x: _cut(x, d), lambda x: field.pi_trunc(_cut(x, d), k)):
        assert t(P.p_mul(a, b)) == t(P.p_mul(t(a), t(b)))
        assert t(P.p_add(a, b)) == t(P.p_add(t(a), t(b)))
    assert all(sum(m) <= d for m in _cut(a, d))


def test_products_of_cut_values_run_at_the_smaller_cap(gauss5, monkeypatch):
    ctx = PrecisionCtx(Fraction(10), d=12)
    x = reduce_scalar(gauss5.one() / (1 - gauss5.var(0)), ctx, err_target=10)
    caps = []
    conv = precision._conv

    def recorded(a, b, dcap, nvars):
        caps.append(dcap)
        return conv(a, b, dcap, nvars)

    monkeypatch.setattr(precision, "_conv", recorded)
    u, v = x.truncate_err(10, 7), x.truncate_err(10, 4)
    w = u * v + u
    assert caps == [4] and w.d == 4
    assert w.coeffs == {(k,): k + 2 for k in range(5)}
    w.inverse()
    assert max(caps) == 4


@given(sum_operands(), st.integers(0, 6))
@settings(max_examples=300, deadline=None)
def test_shortcuts_keep_the_coarser_cap(ab, cap):
    """A sum with an operand that has no digits, and a product by the exact
    unit, return an operand only when it has the general route's cap: an
    operand of a finer quotient than its partner's is not the result."""
    a, b = ab
    b = b.truncate_err(b.err_lv, cap)
    one = ApproxScalar(a.field, a.ctx, 0, {(0,) * a.field.nvars: 1},
                       max(a.err_lv - a.shift, 0) + 1).truncate_err(99, cap)
    for x, y in ((a, b), (b, a)):
        assert _known(x + y) == _known(x._add(y))
        got = [_known(x * one), _known(one * x)]
        with mock.patch.object(ApproxScalar, "_is_one", lambda self: False):
            assert got == [_known(x * one), _known(one * x)]


@st.composite
def laurent_cuts(draw):
    """A raw Laurent value, a new error bound and a degree from 0 to d + 1."""
    d = draw(st.integers(1, 6))
    x = _draw_raw(draw, FieldSpec.laurent("z"), d)
    return x, x.shift + draw(st.integers(-2, 15)), draw(st.integers(0, d + 1))


@given(laurent_cuts())
@example((ApproxScalar(FieldSpec.laurent("z"), PrecisionCtx(10, d=6), 0,
                       {(0,): 1, (1,): 1, (4,): 1}, 7), 7, 2))
@settings(max_examples=300, deadline=None)
def test_laurent_cut_claims_no_dropped_digit(case):
    """A Laurent cut at a degree is a window: err_lv is capped at shift +
    degree + 1, so the digits it drops lie at or above its err_lv, and the
    value keeps the cap ctx.d."""
    x, err, degree = case
    got = x.truncate_err(err, degree)
    assert (x - got).val() >= got.err_lv
    assert got.err_lv <= x.shift + degree + 1
    _assert_normal_form(got)

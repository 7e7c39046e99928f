"""Finite-precision images of scalars, with explicit error tracking.

An ``ApproxScalar`` is a truncated expansion of a field element:

* Gauss model: p^shift * (polynomial in the variables with integer
  coefficients reduced mod p^mod_exp), capped at total degree ctx.d.
* Laurent model: z^shift * (polynomial in z with exact rational
  coefficients), window of ctx.d + 1 digits.  Digits are ``Fraction``s
  (``int``s where a caller supplied them), never floats: every operation,
  inverse included, keeps them exact.

Digits are stored as dicts from exponent tuples to coefficients.  Products
go through ``_conv``: univariate operands (both models) go through the
dispatcher of exact products, ``polys.p_mul_uni``: monomial scaling when
one side has a single term, else Kronecker substitution (one product of
packed Python ints) or, for few term pairs, the pairwise loop.  Bivariate
operands with many term pairs under the degree cap d go through the same
packed product after the weighting x^i y^j -> t^(i*(d+1) + j*(d+2)),
which keeps the total-degree cap exact; sparser ones keep the pairwise
loop (see ``_conv`` for the threshold).  The Gauss inverse is a Newton iteration that doubles
the degree below which it is exact at every step.

``err_lv`` is a lower bound for lv(true - represented) in the p-adic
(resp. z-adic) direction; every operation propagates it.  The total-degree
cap of the Gauss model is a ring quotient, not an error term: results are
classes modulo monomials of degree > ctx.d, and callers pick d large enough
that quotient effects stay below the target precision for their inputs
(factorization certificates re-measure residuals, they never trust the
iteration alone).

The ``ExactDomain`` / ``ApproxDomain`` pair lets the twisted-polynomial and
module layers run the same algorithms over exact scalars or truncations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import FieldMismatch, NotExpandable, PrecisionLoss
from .logval import LogVal
from .scalarfield import GAUSS, FieldSpec, Scalar
from . import polys as P
from .polys import _kronecker

DEFAULT_GUARD = 12

# Bivariate products with at least this many term pairs of total degree
# <= d go through Kronecker substitution, the others through the pairwise
# loop (``_conv`` gives the measurement behind the value).
KRONECKER_PAIRS = 2 ** 14


@dataclass(frozen=True)
class PrecisionCtx:
    """Precision budget: target valuation N, degree cap d, iteration cap."""

    N: Fraction
    d: int = 64
    max_iter: int = 100

    def __post_init__(self):
        object.__setattr__(self, "N", Fraction(self.N))
        if self.N <= 0:
            raise ValueError("precision target N must be positive")
        if self.d < 1:
            raise ValueError("degree cap d must be >= 1")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")

    def working_err(self, extra: int = 0) -> int:
        return math.ceil(self.N) + DEFAULT_GUARD + max(0, extra)


class ApproxScalar:
    """A truncated expansion with a valuation offset and an error bound."""

    __slots__ = ("field", "ctx", "shift", "coeffs", "err_lv")

    def __init__(self, field: FieldSpec, ctx: PrecisionCtx, shift: int,
                 coeffs: dict, err_lv: int):
        self.field = field
        self.ctx = ctx
        self.shift = shift
        self.coeffs = coeffs
        self.err_lv = err_lv
        self._normalize()

    # -- representation upkeep ------------------------------------------

    @property
    def _mod_exp(self) -> int:
        return self.err_lv - self.shift

    def _normalize(self):
        if self.field.kind == GAUSS:
            me = self._mod_exp
            if me <= 0:
                self.coeffs = {}
                return
            mod = self.field.p ** me
            cc = {}
            for m, c in self.coeffs.items():
                if sum(m) <= self.ctx.d:
                    c %= mod
                    if c:
                        cc[m] = c
            self.coeffs = cc
            if cc:
                strip = min(P.p_int_vp(c, self.field.p) for c in cc.values())
                if strip:
                    q = self.field.p ** strip
                    self.coeffs = {m: c // q for m, c in cc.items()}
                    self.shift += strip
        else:
            cc = {}
            for m, c in self.coeffs.items():
                if m[0] <= self.ctx.d and self.shift + m[0] < self.err_lv and c:
                    cc[m] = c
            self.coeffs = cc
            if cc:
                strip = min(m[0] for m in cc)
                if strip:
                    self.coeffs = {(m[0] - strip,): c for m, c in cc.items()}
                    self.shift += strip

    # -- queries -----------------------------------------------------------

    def is_precision_zero(self) -> bool:
        """True when the representation is indistinguishable from 0."""
        return not self.coeffs

    is_zero = is_precision_zero

    def is_exact(self) -> bool:
        return False

    def val_exact(self) -> LogVal | None:
        """Valuation of the representation; None when zero at precision."""
        if not self.coeffs:
            return None
        if self.field.kind == GAUSS:
            return LogVal(self.shift +
                          min(P.p_int_vp(c, self.field.p) for c in self.coeffs.values()))
        return LogVal(self.shift + min(m[0] for m in self.coeffs))

    def val(self) -> LogVal:
        """Valuation, with precision-zero values reported at err_lv."""
        v = self.val_exact()
        return LogVal(self.err_lv) if v is None else v

    def is_invertible(self) -> bool:
        """Whether the inverse is representable in the approximation ring.

        The truncation ring is not a field: a Gauss-model value like x has
        valuation 0 but no expandable inverse.
        """
        if not self.coeffs:
            return False
        if self.field.kind != GAUSS:
            return True
        v = int(self.val_exact().value) - self.shift
        p = self.field.p
        c0 = self.coeffs.get((0,) * self.field.nvars, 0)
        return c0 != 0 and P.p_int_vp(c0, p) == v

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "ApproxScalar":
        if isinstance(other, ApproxScalar):
            if other.field != self.field:
                raise FieldMismatch("mixed fields in approximate arithmetic")
            return other
        if isinstance(other, Scalar):
            return reduce_scalar(other, self.ctx, err_target=self.err_lv + 4)
        if isinstance(other, (int, Fraction)):
            return reduce_scalar(self.field.scalar(other), self.ctx,
                                 err_target=self.err_lv + 4)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        f = self.field
        s = min(self.shift, o.shift)
        err = min(self.err_lv, o.err_lv)
        if f.kind == GAUSS:
            pa = f.p ** (self.shift - s)
            pb = f.p ** (o.shift - s)
            cc = {m: c * pa for m, c in self.coeffs.items()}
            for m, c in o.coeffs.items():
                cc[m] = cc.get(m, 0) + c * pb
            return ApproxScalar(f, self.ctx, s, cc, err)
        err = min(err, s + self.ctx.d + 1)
        cc = {(m[0] + self.shift - s,): c for m, c in self.coeffs.items()}
        for m, c in o.coeffs.items():
            k = (m[0] + o.shift - s,)
            cc[k] = cc.get(k, 0) + c
        return ApproxScalar(f, self.ctx, s, cc, err)

    __radd__ = __add__

    def __neg__(self):
        return ApproxScalar(self.field, self.ctx, self.shift,
                            {m: -c for m, c in self.coeffs.items()}, self.err_lv)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def _err_of_product(self, o: "ApproxScalar") -> int:
        cands = [self.err_lv + o.err_lv]
        va, vb = self.val_exact(), o.val_exact()
        if va is not None:
            cands.append(int(va.value) + o.err_lv)
        if vb is not None:
            cands.append(int(vb.value) + self.err_lv)
        return min(cands)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        f = self.field
        s = self.shift + o.shift
        err = self._err_of_product(o)
        if f.kind != GAUSS:
            err = min(err, s + self.ctx.d + 1)
        cc = _conv(self.coeffs, o.coeffs, self.ctx.d, f.nvars)
        return ApproxScalar(f, self.ctx, s, cc, err)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self) -> "ApproxScalar":
        if not self.coeffs:
            raise PrecisionLoss("inverse of a value that is zero at precision")
        f, ctx = self.field, self.ctx
        v = int(self.val_exact().value)
        if f.kind == GAUSS:
            # after _normalize the unit part has a p-unit coefficient somewhere;
            # invertibility additionally needs the constant term to be a unit
            me = self.err_lv - v
            if me <= 0:
                raise PrecisionLoss("no digits left for inversion")
            mod = f.p ** me
            mono0 = (0,) * f.nvars
            u0 = self.coeffs.get(mono0, 0)
            if u0 % f.p == 0:
                raise NotExpandable("constant term not a unit mod p")
            # Newton z <- z(2 - uz): z is exact below degree D, so one
            # step makes it exact below 2D; each step works at cap 2D - 1
            z = {mono0: pow(u0, -1, mod)}
            D = 1
            while D <= ctx.d:
                cap = min(2 * D, ctx.d + 1) - 1
                uz = _gauss_polymul(self.coeffs, z, mod, cap, f.nvars)
                e = {m: (-c) % mod for m, c in uz.items()}
                e[mono0] = (e.get(mono0, 0) + 2) % mod
                z = _gauss_polymul(z, e, mod, cap, f.nvars)
                D = cap + 1
            err = self.err_lv - 2 * v
            return ApproxScalar(f, ctx, -v, z, err)
        k0 = v - self.shift
        u = {m[0] - k0: c for m, c in self.coeffs.items()}
        n = ctx.d
        inv = [Fraction(0)] * (n + 1)
        inv[0] = Fraction(1) / u[0]
        for k in range(1, n + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                if i in u:
                    acc += u[i] * inv[k - i]
            inv[k] = -acc / u[0]
        err = self.err_lv - 2 * v
        cc = {(k,): c for k, c in enumerate(inv) if c}
        return ApproxScalar(f, ctx, -v, cc, err)

    def truncate_err(self, err: int, degree: int | None = None) -> "ApproxScalar":
        """Round down to a smaller error bound and/or degree window.

        Values whose size is at or below the new bound become genuine
        zeros of the coarser quotient, which is what certificate linear
        algebra at a fixed working precision needs.  ``degree`` discards
        monomials above a watermark: products never push information past
        the degree cap but derivatives leak the cap's truncation junk
        downward one degree per application, so certificate checks ignore
        the top band.
        """
        cc = self.coeffs
        if degree is not None:
            cc = {m: c for m, c in cc.items() if sum(m) <= degree}
        return ApproxScalar(self.field, self.ctx, self.shift,
                            dict(cc), min(err, self.err_lv))

    def derive(self, j: int = 0) -> "ApproxScalar":
        f = self.field
        f._check_deriv(j)
        if f.kind == GAUSS:
            cc: dict = {}
            for m, c in self.coeffs.items():
                if m[j]:
                    m2 = m[:j] + (m[j] - 1,) + m[j + 1:]
                    cc[m2] = cc.get(m2, 0) + c * m[j]
            return ApproxScalar(f, self.ctx, self.shift, cc, self.err_lv)
        cc = {}
        for m, c in self.coeffs.items():
            e = self.shift + m[0]
            if e:
                cc[m] = c * e
        return ApproxScalar(f, self.ctx, self.shift - 1, cc, self.err_lv - 1)

    def __eq__(self, other):
        # equality at precision: the difference is indistinguishable from 0
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).is_precision_zero()

    __hash__ = None

    # -- lifting -------------------------------------------------------------

    def lift(self) -> Scalar:
        """Exact scalar represented by the truncation (centered digits)."""
        f = self.field
        if f.kind == GAUSS:
            mod = f.p ** max(self._mod_exp, 1)
            scale = Fraction(f.p) ** self.shift
            num = {}
            for m, c in self.coeffs.items():
                c = c if c <= mod // 2 else c - mod
                num[m] = Fraction(c) * scale
            return Scalar(f, num)
        num = {}
        den = P.p_const(1, 1)
        if self.shift < 0:
            den = {(-self.shift,): Fraction(1)}
            for m, c in self.coeffs.items():
                num[m] = Fraction(c)
        else:
            for m, c in self.coeffs.items():
                num[(m[0] + self.shift,)] = Fraction(c)
        return Scalar(f, num, den)

    def __repr__(self):
        v = self.val_exact()
        return (f"ApproxScalar(lv~{v if v is not None else '>=' + str(self.err_lv)},"
                f" err>={self.err_lv})")

    def __str__(self):
        return str(self.lift())


def _conv(a: dict, b: dict, dcap: int, nvars: int) -> dict:
    """Truncated product of two digit dicts: the terms of degree <= dcap.

    The path depends only on the operands' shape:

    * univariate: ``polys.p_mul_uni``, shared with exact products:
      monomial scaling for a single-term operand, Kronecker substitution
      (``_kronecker``) from ``polys.MUL_KRONECKER_PAIRS`` term pairs on,
      the pairwise loop below;
    * bivariate with at least ``KRONECKER_PAIRS`` truncated pairs: the
      same ``_kronecker`` on weighted exponents (``_weighted``), with cap
      (dcap+1)^2 - 1; an output exponent e maps back to x^(k-j) y^j for
      k, j = divmod(e, dcap + 1);
    * bivariate otherwise: the pairwise loop, with b scanned in degree
      order for early exit.

    The branch is picked by the count of term pairs of total degree
    <= dcap (``_pairs``), which is the work of the loop; the packed
    product costs about (dcap+1)^2 slots, half of them empty, whatever
    the operands.  On the bivariate products of the ``multi-decompose``
    benchmark (d = 28, digits of ~86 bits, one process), the loop was
    faster below 2^13 pairs (the packed product took 1.4x to 20x as
    long: sparse operands spread over the whole triangle pay for every
    slot), the packed product won from about 2^13.25 pairs on, by 1.2x
    to 1.8x up to 2^15 and by 2.0x on dense 435-term triangles (~36k
    pairs).  ``KRONECKER_PAIRS`` = 2^14 leaves the few products between
    2^13 and 2^14 pairs on the loop.

    Results are exact: ``int`` digits stay ``int``; ``Fraction`` digits
    give ``Fraction`` digits.  Zero digits may be dropped or kept.
    """
    if not a or not b:
        return {}
    if nvars == 1:
        return P.p_mul_uni(a, b, dcap)
    bi = sorted(((sum(m), m, c) for m, c in b.items()))
    if _pairs(a, bi, dcap) >= KRONECKER_PAIRS:
        w = dcap + 1
        prod = _kronecker(_weighted(a, w), _weighted(b, w), w * w - 1)
        out = {}
        for (e,), c in prod.items():
            k, j = divmod(e, w)
            out[(k - j, j)] = c
        return out
    out = {}
    get = out.get
    for ma, ca in a.items():
        rem = dcap - sum(ma)
        ma0, ma1 = ma
        for db, mb, cb in bi:
            if db > rem:
                break
            m = (ma0 + mb[0], ma1 + mb[1])
            out[m] = get(m, 0) + ca * cb
    return out


def _pairs(a: dict, bi: list, dcap: int) -> int:
    """Number of term pairs (one of a, one of b) of total degree <= dcap,
    read off the two total-degree histograms; ``bi`` is b as sorted
    (degree, monomial, digit) triples."""
    hist = [0] * (dcap + 1)
    for db, _m, _c in bi:
        if db > dcap:
            break
        hist[db] += 1
    upto = list(accumulate(hist))   # upto[t]: terms of b of degree <= t
    return sum(upto[dcap - da] for m in a if (da := sum(m)) <= dcap)


def _weighted(d: dict, w: int) -> dict:
    """x^i y^j -> t^(i*w + j*(w+1)) = t^((i+j)*w + j), for w = dcap + 1.

    A term of total degree K <= dcap sits in slot K*w + j with j <= K < w,
    so a product of such terms, if its degree K stays <= dcap, lands in
    slot K*w + j without carrying into the next degree; every product of
    degree > dcap lands at or above w^2, so the cap w^2 - 1 drops exactly
    those.
    """
    return {(i * w + j * (w + 1),): c for (i, j), c in d.items()}


def _gauss_polymul(a: dict, b: dict, mod: int, dcap: int, nvars: int) -> dict:
    cc = _conv(a, b, dcap, nvars)
    return {m: r for m, c in cc.items() if (r := c % mod)}


def reduce_scalar(x: Scalar, ctx: PrecisionCtx, err_target: int | None = None) -> ApproxScalar:
    """Truncated image of an exact scalar.

    Raises ``NotExpandable`` when the denominator is not a unit of the
    expansion ring (Gauss model: constant term divisible by p after
    valuation normalization).
    """
    f = x.field
    if err_target is None:
        err_target = ctx.working_err()
    if x.is_zero():
        return ApproxScalar(f, ctx, 0, {}, err_target)
    if f.kind == GAUSS:
        return _reduce_gauss(x, ctx, err_target)
    return _reduce_laurent(x, ctx, err_target)


def _split_padic(poly: P.Poly, p: int):
    """poly = p^a * unit_rational * primitive_int_poly, min v_p = 0."""
    c = P.p_content(poly)
    prim = {m: int(v / c) for m, v in poly.items()}
    a = P.p_frac_vp(c, p)
    unit = c / Fraction(p) ** a
    return a, unit, prim


def _reduce_gauss(x: Scalar, ctx: PrecisionCtx, err_target: int) -> ApproxScalar:
    f = x.field
    an, un, num = _split_padic(x.num, f.p)
    ad, ud, den = _split_padic(x.den, f.p)
    shift = an - ad
    me = err_target - shift
    if me <= 0:
        return ApproxScalar(f, ctx, shift, {}, err_target)
    mod = f.p ** me
    r = Fraction(un, 1) / ud
    rm = (r.numerator % mod) * pow(r.denominator, -1, mod) % mod
    ncap = {m: c % mod for m, c in num.items() if sum(m) <= ctx.d}
    mono0 = (0,) * f.nvars
    if P.p_is_const(x.den):
        digits = {m: (c * rm) % mod for m, c in ncap.items()}
        return ApproxScalar(f, ctx, shift, digits, err_target)
    d0 = den.get(mono0, 0)
    if d0 % f.p == 0:
        raise NotExpandable(
            "denominator is not a unit of the approximation ring")
    inv = ApproxScalar(f, ctx, 0, {m: c % mod for m, c in den.items()
                                   if sum(m) <= ctx.d}, me).inverse()
    digits = _gauss_polymul(ncap, inv.coeffs, mod, ctx.d, f.nvars)
    digits = {m: (c * rm) % mod for m, c in digits.items()}
    return ApproxScalar(f, ctx, shift + inv.shift, digits,
                        min(err_target, shift + inv.err_lv))


def _reduce_laurent(x: Scalar, ctx: PrecisionCtx, err_target: int) -> ApproxScalar:
    f = x.field
    a = P.p_min_exp(x.num, 0)
    b = P.p_min_exp(x.den, 0)
    shift = a - b
    num = {m[0] - a: c for m, c in x.num.items()}
    den = {m[0] - b: c for m, c in x.den.items()}
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
    cc = {(k,): c for k, c in enumerate(out) if c}
    return ApproxScalar(f, ctx, shift, cc, min(err_target, shift + n + 1))


# -- coefficient domains ------------------------------------------------------


@dataclass(frozen=True)
class ExactDomain:
    """Exact scalars of a field, as a coefficient domain."""

    field: FieldSpec

    is_exact = True

    def zero(self):
        return self.field.zero()

    def one(self):
        return self.field.one()

    def variable(self, j: int):
        return self.field.var(j)

    def coerce(self, x):
        if isinstance(x, ApproxScalar):
            raise FieldMismatch("cannot coerce approximate scalar into exact domain")
        return self.field.scalar(x)


@dataclass(frozen=True)
class ApproxDomain:
    """Truncated scalars of a field at a fixed error target."""

    field: FieldSpec
    ctx: PrecisionCtx
    err: int

    is_exact = False

    def zero(self):
        return ApproxScalar(self.field, self.ctx, 0, {}, self.err)

    def one(self):
        return self.coerce(1)

    def variable(self, j: int):
        return self.coerce(self.field.var(j))

    def coerce(self, x):
        if isinstance(x, ApproxScalar):
            if x.field != self.field:
                raise FieldMismatch("mixed fields")
            return x
        if isinstance(x, (int, Fraction)):
            x = self.field.scalar(x)
        if isinstance(x, Scalar):
            if x.field != self.field:
                raise FieldMismatch("mixed fields")
            return reduce_scalar(x, self.ctx, err_target=self.err)
        raise TypeError(f"cannot coerce {type(x).__name__}")


def domain_of(elem) -> "ExactDomain | ApproxDomain":
    if isinstance(elem, Scalar):
        return ExactDomain(elem.field)
    if isinstance(elem, ApproxScalar):
        return ApproxDomain(elem.field, elem.ctx, elem.err_lv)
    raise TypeError(f"not a scalar: {type(elem).__name__}")

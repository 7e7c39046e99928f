"""Finite-precision images of scalars, with explicit error tracking.

An ``ApproxScalar`` is a truncated expansion of a field element:

* Gauss model: p^shift * (polynomial in the variables with integer
  coefficients reduced mod p^mod_exp), capped at total degree ctx.d.
* Laurent model: z^shift * (polynomial in z with exact rational
  coefficients), window of ctx.d + 1 digits, as ``int`` numerators over
  one positive ``int`` ``den`` (Gauss: ``den`` = 1): sums bring operands
  to one denominator, products multiply them; no gcd per digit.

Digits are stored as dicts from exponent tuples to ``int``s.  Products
(``_conv``) are those of exact scalars, one per arity, truncated at the
degree cap d: ``polys.p_mul_uni`` (both models) and ``polys.p_mul_bi``.
Both models invert by the same Newton iteration on integer numerators,
which doubles the degree below which it is exact at every step.

Every value is kept in a normal form: ``_normalize`` divides the
valuation of the digits out into ``shift`` (Gauss: the digits have gcd
prime to p; Laurent: a digit sits at exponent 0, gcd(den, digits) = 1),
and nothing else writes ``coeffs``, ``den`` or ``shift``.  So ``val``
of a nonzero value is its shift.

``reduce_scalar`` takes an exact scalar to its truncation by one route
in both models: the numerator's digits times the Newton inverse of the
denominator, through ``_polymul``.  A ``Scalar`` holds num and den with
int coefficients, so the shift is read off them directly by
``FieldSpec.poly_val``: the p-adic valuations of their contents (Gauss,
which divides those powers of p out) or their lowest exponents
(Laurent).  A constant denominator needs no inverse: it becomes ``den``
(Laurent) or is inverted mod the digit modulus (Gauss).

``err_lv`` is a lower bound for lv(true - represented) in the p-adic
(resp. z-adic) direction; every operation propagates it, and an exact
operand c loses nothing of it in ``x + c`` or ``x * c`` (``_coerce``).
The total-degree cap of the Gauss model is a ring quotient, not an error
term: results are classes modulo monomials of degree > ctx.d, and callers
pick d large enough that quotient effects stay below the target precision
for their inputs (factorization certificates re-measure residuals, they
never trust the iteration alone).

The ``ExactDomain`` / ``ApproxDomain`` pair lets the twisted-polynomial and
module layers run the same algorithms over exact scalars or truncations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldMismatch, NotExpandable, PrecisionLoss
from .logval import LogVal
from .scalarfield import GAUSS, FieldSpec, Scalar
from . import polys as P

# Digits kept beyond ceil(N) (and factorize's 3 * span).  Measured need
# is 1: at 0 test_working_precision_reaches_the_target fails, at 1 tier-1
# and the benchmark corpora pass; the other 11 are margin.
DEFAULT_GUARD = 12


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

    @property
    def target_err(self) -> int:
        """ceil(N): the error that results are certified and printed at."""
        return math.ceil(self.N)

    def working_err(self, extra: int = 0) -> int:
        return self.target_err + DEFAULT_GUARD + max(0, extra)


class ApproxScalar:
    """A truncated expansion with a valuation offset and an error bound."""

    __slots__ = ("field", "ctx", "shift", "coeffs", "err_lv", "den")

    def __init__(self, field: FieldSpec, ctx: PrecisionCtx, shift: int,
                 coeffs: dict, err_lv: int, den: int = 1):
        self.field = field
        self.ctx = ctx
        self.shift = shift
        self.coeffs = coeffs
        self.err_lv = err_lv
        self.den = den
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
                strip = self.field.poly_val(cc)
                if strip:
                    q = self.field.p ** strip
                    self.coeffs = {m: c // q for m, c in cc.items()}
                    self.shift += strip
        else:
            top = min(self.ctx.d, self.err_lv - self.shift - 1)
            cc = {m: c for m, c in self.coeffs.items() if c and m[0] <= top}
            g = math.gcd(self.den, *cc.values())
            g = -g if self.den < 0 else g
            strip = 0 if (0,) in cc else min(cc, default=(0,))[0]
            if g != 1 or strip:
                cc = {(m[0] - strip,): c // g for m, c in cc.items()}
                self.den //= g
                self.shift += strip
            self.coeffs = cc

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        """True when the representation is indistinguishable from 0."""
        return not self.coeffs

    def val(self) -> LogVal:
        """Valuation of the representation (the shift, by the normal form);
        err_lv for values that are zero at precision."""
        return LogVal(self.shift if self.coeffs else self.err_lv)

    def is_invertible(self) -> bool:
        """Whether the inverse is representable in the approximation ring.

        The truncation ring is not a field: a Gauss-model value like x has
        valuation 0 but no expandable inverse.
        """
        if self.field.kind != GAUSS:
            return bool(self.coeffs)
        return self.coeffs.get((0,) * self.field.nvars, 0) % self.field.p != 0

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "ApproxScalar":
        if isinstance(other, ApproxScalar):
            if other.field != self.field:
                raise FieldMismatch("mixed fields in approximate arithmetic")
            return other
        if not isinstance(other, (int, Fraction, Scalar)):
            return NotImplemented
        other = self.field.scalar(other)   # FieldMismatch for another field
        # an exact c reduced at err_lv + max(0, v(c) - shift) makes x + c
        # and x * c keep err_lv and v(c) + err_lv: nothing is lost
        f = self.field
        v = 0
        if f.kind == GAUSS and other.num:
            v = f.poly_val(other.num) - f.poly_val(other.den)
        return reduce_scalar(other, self.ctx,
                             err_target=self.err_lv + max(0, v - self.shift))

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not o.coeffs and self._absorbs(o):
            return self
        if not self.coeffs and o._absorbs(self):
            return o
        return self._add(o)

    __radd__ = __add__

    def _absorbs(self, o: "ApproxScalar") -> bool:
        """Whether self + o is self for an o with no digits: the sum keeps
        err_lv (o's is no lower, nor, in the Laurent model, is the window
        min(shift_a, shift_b) + d + 1) and the shift (self has digits, or
        o's shift is no lower)."""
        if o.err_lv < self.err_lv:
            return False
        if self.field.kind != GAUSS and \
                self.err_lv > min(self.shift, o.shift) + self.ctx.d + 1:
            return False
        return bool(self.coeffs) or o.shift >= self.shift

    def _add(self, o: "ApproxScalar") -> "ApproxScalar":
        """The sum by the general route: both operands at the lower shift
        (and, Laurent, over the lcm of the denominators), then normalized."""
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
        den = math.lcm(self.den, o.den)   # each operand scaled to it once
        ka, kb = den // self.den, den // o.den
        ea, eb = self.shift - s, o.shift - s
        cc = {(m[0] + ea,): c * ka for m, c in self.coeffs.items()}
        for (e,), c in o.coeffs.items():
            cc[e + eb,] = cc.get((e + eb,), 0) + c * kb
        return ApproxScalar(f, self.ctx, s, cc, min(err, s + self.ctx.d + 1),
                            den)

    def __neg__(self):
        return ApproxScalar(self.field, self.ctx, self.shift,
                            {m: -c for m, c in self.coeffs.items()},
                            self.err_lv, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def _err_of_product(self, o: "ApproxScalar") -> int:
        err = self.err_lv + o.err_lv
        if self.coeffs:
            err = min(err, self.shift + o.err_lv)
        if o.coeffs:
            err = min(err, o.shift + self.err_lv)
        return err

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
        return ApproxScalar(f, self.ctx, s, cc, err, self.den * o.den)

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
        v = self.shift
        err = self.err_lv - 2 * v
        mono0 = (0,) * f.nvars
        u0 = self.coeffs.get(mono0, 0)
        top = ctx.d
        if f.kind == GAUSS:
            # _normalize leaves digits mod p^(err_lv - v) with gcd prime to
            # p; the inverse also needs the constant term to be a p-unit
            mod = f.p ** (self.err_lv - v)
            if u0 % f.p == 0:
                raise NotExpandable("constant term not a unit mod p")
            z, dz = {mono0: pow(u0, -1, mod)}, 1
        else:
            # _normalize put a nonzero digit at exponent 0; it drops every
            # digit of the inverse at or above z^(err_lv - v)
            mod = None
            top = min(top, self.err_lv - v - 1)
            z, dz = {mono0: 1}, u0
        # Newton w <- w(2 - Uw) on w = z/dz ~ 1/U, U the digits (u = U/den):
        # z <- z(2dz - Uz), dz <- dz^2, then gcd(dz, z) divided out, which
        # keeps Laurent numerators near the size of the digits.  w is exact
        # below degree D, so one step makes it exact below 2D; each step
        # works at cap 2D - 1.  Over Q the inverse truncated at degree top
        # is unique, so the Laurent digits are those of the power-series
        # recurrence.
        D = 1
        while D <= top:
            cap = min(2 * D, top + 1) - 1
            uz = _polymul(self.coeffs, z, mod, cap, f.nvars)
            e = {m: -c for m, c in uz.items()}
            e[mono0] = e.get(mono0, 0) + 2 * dz
            z = _polymul(z, e, mod, cap, f.nvars)
            dz = dz * dz
            if (g := math.gcd(dz, *z.values())) > 1:
                z, dz = {m: c // g for m, c in z.items()}, dz // g
            D = cap + 1
        z = {m: c * self.den for m, c in z.items()}   # 1/u = den/U
        return ApproxScalar(f, ctx, -v, z, err, dz)

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
                            dict(cc), min(err, self.err_lv), self.den)

    def derive(self, j: int = 0) -> "ApproxScalar":
        f = self.field
        f._check_deriv(j)
        if f.kind == GAUSS:
            return ApproxScalar(f, self.ctx, self.shift,
                                P.p_derive(self.coeffs, j), self.err_lv)
        cc = {}
        for m, c in self.coeffs.items():
            e = self.shift + m[0]
            if e:
                cc[m] = c * e
        return ApproxScalar(f, self.ctx, self.shift - 1, cc, self.err_lv - 1,
                            self.den)

    def __eq__(self, other):
        # equality at precision: the difference is indistinguishable from 0
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).is_zero()

    __hash__ = None

    # -- lifting -------------------------------------------------------------

    def lift(self) -> Scalar:
        """Exact scalar represented by the truncation (centered digits)."""
        f, s = self.field, self.shift
        if f.kind == GAUSS:
            mod, q = f.p ** max(self._mod_exp, 1), f.p ** max(s, 0)
            num = {m: (c if c <= mod // 2 else c - mod) * q
                   for m, c in self.coeffs.items()}
            return Scalar(f, num, P.p_const(f.nvars, f.p ** max(-s, 0)))
        num = {(m[0] + max(s, 0),): c for m, c in self.coeffs.items()}
        return Scalar(f, num, {(max(-s, 0),): self.den})

    def __repr__(self):
        return (f"ApproxScalar(lv~{'' if self.coeffs else '>='}{self.val()},"
                f" err>={self.err_lv})")

    def __str__(self):
        return str(self.lift())


def _conv(a: dict, b: dict, dcap: int, nvars: int) -> dict:
    """The terms of degree <= dcap of a * b; zero digits may be kept.  The
    benchmark tracer counts the terms of ``__mul__``'s products here."""
    if not a or not b:
        return {}
    if nvars == 1:
        return P.p_mul_uni(a, b, dcap)
    return P.p_mul_bi(a, b, dcap)


def _polymul(a: dict, b: dict, mod: int | None, dcap: int, nvars: int) -> dict:
    """Truncated product, its digits reduced mod ``mod`` unless it is None."""
    cc = _conv(a, b, dcap, nvars)
    if mod is None:
        return cc
    return {m: r for m, c in cc.items() if (r := c % mod)}


def reduce_scalar(x: Scalar, ctx: PrecisionCtx, err_target: int | None = None) -> ApproxScalar:
    """Truncated image of an exact scalar, by the one route the module
    docstring describes.

    Raises ``NotExpandable`` when the denominator is not a unit of the
    expansion ring (Gauss model: constant term divisible by p).
    """
    f = x.field
    if err_target is None:
        err_target = ctx.working_err()
    if x.is_zero():
        return ApproxScalar(f, ctx, 0, {}, err_target)
    a, b = f.poly_val(x.num), f.poly_val(x.den)
    if f.kind == GAUSS:
        pa, pb = f.p ** a, f.p ** b
        num = {m: c // pa for m, c in x.num.items()}
        den = {m: c // pb for m, c in x.den.items()}
        err = err_target
    else:
        num, den = P.p_shift(x.num, (a,)), P.p_shift(x.den, (b,))
        err = min(err_target, a - b + ctx.d + 1)   # the window of d + 1 digits
    shift = a - b
    if err <= shift:
        return ApproxScalar(f, ctx, shift, {}, err_target)
    mod = f.p ** (err - shift) if f.kind == GAUSS else None
    if P.p_is_const(den):
        (c,) = den.values()
        if mod is None:
            return ApproxScalar(f, ctx, shift, num, err, c)
        c = pow(c, -1, mod)
        return ApproxScalar(f, ctx, shift, {m: v * c for m, v in num.items()},
                            err)
    if f.kind == GAUSS and den.get((0,) * f.nvars, 0) % f.p == 0:
        raise NotExpandable(
            "denominator is not a unit of the approximation ring")
    inv = ApproxScalar(f, ctx, 0, den, err - shift).inverse()
    return ApproxScalar(f, ctx, shift,
                        _polymul(num, inv.coeffs, mod, ctx.d, f.nvars), err,
                        inv.den)


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

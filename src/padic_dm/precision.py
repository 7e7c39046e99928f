"""Finite-precision images of scalars, with explicit error tracking.

An ``ApproxScalar`` is pi^shift times digits known below pi^(err_lv -
shift), pi the uniformizer: p (Gauss) or z (Laurent).  Both models keep
digits by one rule, ``FieldSpec.pi_trunc``: a Gauss digit c while
v_p(c) < err_lv - shift, a Laurent monomial z^m while m < err_lv - shift,
and no monomial of total degree > ctx.d; ``FieldSpec.pi_shift`` moves
digits by powers of pi.  Digits are dicts from exponent tuples to ``int``s
over one positive ``int`` ``den``: 1 for Gauss (ints mod p^k); for the
rational Laurent digits, sums bring operands to one denominator and
products multiply them, with no gcd per digit.

Two constructors write a value, and both end in ``_normalize``, which
alone writes ``coeffs``, ``den`` and ``shift`` into a normal form: the
digits truncated below pi^(err_lv - shift), gcd(den, digits) divided out
and their valuation (``FieldSpec.poly_val``) moved into the shift.  So
``val`` of a nonzero value is its shift, and it is invertible when its
constant digit is nonzero below pi.  The public ``ApproxScalar(...)``
takes raw digits and also cuts them at the degree cap d.
``_from_capped``, private to this module, takes digits already within
the cap and skips that test: every arithmetic result has them, since
products (``_conv``, those of exact scalars truncated at d, one per
arity) are cut at d, sums and negations of capped operands stay capped,
a Gauss d/dx lowers the degree, and Laurent sums move digits only inside
their window (``_window`` keeps err_lv - shift <= d + 1).  A product by
the exact unit (digits {0: 1}, shift 0, den 1) is the other operand
itself where the general route would return it unchanged
(``_times_one``), and the unit is its own inverse.  Both models invert
by one Newton iteration on integer numerators, which doubles the degree
below which it is exact at every step; only its start depends on the
digit ring.  ``reduce_scalar`` maps an exact scalar by one route, to the
error its caller names (``err_target`` is required: this layer holds no
working precision of its own): num and den lose their valuations, and num
is multiplied by the Newton inverse of den, unless den is constant: it
becomes ``den`` (Laurent) or is inverted mod p^k (Gauss).

``err_lv`` is a lower bound for lv(true - represented) in the pi-adic
direction; every operation propagates it, and an exact operand c loses
nothing of it in ``x + c`` or ``x * c`` (``_coerce``).  The d + 1 Laurent
digits bound it by shift + d + 1 (``_window``).  The Gauss degree cap is
still not an error term but a ring quotient: results are classes modulo
monomials of degree > d, products respect it, and derivatives leak its
truncation one degree down per application.  Callers pick d large enough
that quotient effects stay below the target precision for their inputs
(factorization certificates re-measure residuals, never trusting the
iteration alone).

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
        self._normalize(ctx.d)

    # -- representation upkeep ------------------------------------------

    @property
    def _mod_exp(self) -> int:
        return self.err_lv - self.shift

    def _normalize(self, d: int | None):
        """The normal form of the module docstring; digits of total degree
        > d dropped too, unless d is None."""
        f = self.field
        cc = f.pi_trunc(self.coeffs, self._mod_exp, d)
        if self.den != 1:   # Laurent: gcd(den, digits) = 1, den > 0
            g = math.gcd(self.den, *cc.values())
            g = -g if self.den < 0 else g
            if g != 1:
                cc = {m: c // g for m, c in cc.items()}
                self.den //= g
        if cc and (strip := f.poly_val(cc)):
            cc = f.pi_shift(cc, -strip)
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
        return _is_unit(self.field, self.coeffs)

    def _is_one(self) -> bool:
        """Whether this is the exact unit: digits {0: 1}, shift 0, den 1."""
        if len(self.coeffs) != 1 or self.shift or self.den != 1:
            return False
        (m, c), = self.coeffs.items()
        return c == 1 and not any(m)

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
        v = 0
        if self.field.kind == GAUSS and other.num:
            v = int(other.val())
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
        if _window(self.field, self.ctx, self.err_lv,
                   min(self.shift, o.shift)) < self.err_lv:
            return False
        return bool(self.coeffs) or o.shift >= self.shift

    def _add(self, o: "ApproxScalar", negate: bool = False) -> "ApproxScalar":
        """The sum (with ``negate``, the difference) by the general route:
        both operands at the lower shift and over the lcm of the
        denominators, then normalized."""
        f = self.field
        s = min(self.shift, o.shift)
        a = f.pi_shift(self.coeffs, self.shift - s)
        b = f.pi_shift(o.coeffs, o.shift - s)
        den = math.lcm(self.den, o.den)
        if den != 1:   # each operand scaled to den once
            ka, kb = den // self.den, den // o.den
            a = {m: c * ka for m, c in a.items()}
            b = {m: c * kb for m, c in b.items()}
        cc = dict(a)
        get = cc.get
        if negate:
            for m, c in b.items():
                cc[m] = get(m, 0) - c
        else:
            for m, c in b.items():
                cc[m] = get(m, 0) + c
        err = _window(f, self.ctx, min(self.err_lv, o.err_lv), s)
        return _from_capped(f, self.ctx, s, cc, err, den)

    def __neg__(self):
        return _from_capped(self.field, self.ctx, self.shift,
                            {m: -c for m, c in self.coeffs.items()},
                            self.err_lv, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not o.coeffs and self._absorbs(o):
            return self
        if not self.coeffs and o._absorbs(self):
            return -o
        return self._add(o, negate=True)

    def __rsub__(self, other):
        return (-self) + other

    def _err_of_product(self, o: "ApproxScalar") -> int:
        err = self.err_lv + o.err_lv
        if self.coeffs:
            err = min(err, self.shift + o.err_lv)
        if o.coeffs:
            err = min(err, o.shift + self.err_lv)
        return err

    def _times_one(self, u: "ApproxScalar") -> bool:
        """Whether self * u is self by the general route: u is the exact
        unit, its err_lv is at least max(err_lv - shift, 0), so that the
        product keeps err_lv (``_err_of_product``), and self lies inside its
        Laurent window, so that ``_window`` keeps it too."""
        return (u._is_one() and u.err_lv >= max(self._mod_exp, 0)
                and _window(self.field, self.ctx, self.err_lv,
                            self.shift) >= self.err_lv)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self._times_one(o):
            return self
        if o._times_one(self):
            return o
        f = self.field
        s = self.shift + o.shift
        err = _window(f, self.ctx, self._err_of_product(o), s)
        cc = _conv(self.coeffs, o.coeffs, self.ctx.d, f.nvars)
        return _from_capped(f, self.ctx, s, cc, err, self.den * o.den)

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
        # _normalize leaves digits below pi^me with the valuation in the
        # shift; the inverse also needs the constant digit to be a unit
        if not _is_unit(self.field, self.coeffs):
            raise NotExpandable("constant term not a unit mod p")
        if self._is_one():   # Newton from u0 = 1 is the identity
            return self
        f, ctx = self.field, self.ctx
        v, me = self.shift, self._mod_exp
        mono0 = (0,) * f.nvars
        u0 = self.coeffs[mono0]
        if f.kind == GAUSS:
            # digits mod p^me, over den 1: start from 1/u0 mod p^me
            top = ctx.d
            z, dz = {mono0: pow(u0, -1, f.p ** me)}, 1
        else:
            # rational digits: start from 1/u0, and stop below z^me, which
            # _normalize drops
            top = min(ctx.d, me - 1)
            z, dz = {mono0: 1}, u0
        # Newton w <- w(2 - Uw) on w = z/dz ~ 1/U, U the digits (u = U/den):
        # z <- z(2dz - Uz), dz <- dz^2, then gcd(dz, z) divided out, which
        # keeps Laurent numerators near the size of the digits.  w is exact
        # below degree D, so one step makes it exact below 2D; each step
        # works at cap 2D - 1, below pi^me.  Over Q the inverse truncated at
        # degree top is unique, so the Laurent digits are those of the
        # power-series recurrence.
        D = 1
        while D <= top:
            cap = min(2 * D, top + 1) - 1
            uz = f.pi_trunc(_conv(self.coeffs, z, cap, f.nvars), me)
            e = {m: -c for m, c in uz.items()}
            e[mono0] = e.get(mono0, 0) + 2 * dz
            z = f.pi_trunc(_conv(z, e, cap, f.nvars), me)
            dz = dz * dz
            if (g := math.gcd(dz, *z.values())) > 1:
                z, dz = {m: c // g for m, c in z.items()}, dz // g
            D = cap + 1
        z = {m: c * self.den for m, c in z.items()}   # 1/u = den/U
        return _from_capped(f, ctx, -v, z, self.err_lv - 2 * v, dz)

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
            return _from_capped(f, self.ctx, self.shift,
                                P.p_derive(self.coeffs, j), self.err_lv)
        cc = {}
        for m, c in self.coeffs.items():
            e = self.shift + m[0]
            if e:
                cc[m] = c * e
        return _from_capped(f, self.ctx, self.shift - 1, cc,
                            self.err_lv - 1, self.den)

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
        num = self.coeffs
        if f.kind == GAUSS:
            mod = f.p ** max(self._mod_exp, 1)
            num = {m: c if c <= mod // 2 else c - mod for m, c in num.items()}
        return Scalar(f, f.pi_shift(num, max(s, 0)),
                      f.pi_shift(P.p_const(f.nvars, self.den), max(-s, 0)))

    def __repr__(self):
        return (f"ApproxScalar(lv~{'' if self.coeffs else '>='}{self.val()},"
                f" err>={self.err_lv})")

    def __str__(self):
        return str(self.lift())


def _from_capped(f: FieldSpec, ctx: PrecisionCtx, shift: int,
                 coeffs: dict, err_lv: int, den: int = 1) -> ApproxScalar:
    """A value from digits of total degree <= ctx.d: normalized as by
    ``ApproxScalar(...)``, without its degree test (module docstring)."""
    x = object.__new__(ApproxScalar)
    x.field, x.ctx, x.shift, x.coeffs, x.err_lv, x.den = \
        f, ctx, shift, coeffs, err_lv, den
    x._normalize(None)
    return x


def _conv(a: dict, b: dict, dcap: int, nvars: int) -> dict:
    """The terms of degree <= dcap of a * b; zero digits may be kept.  The
    benchmark tracer counts the terms of ``__mul__``'s products here."""
    if not a or not b:
        return {}
    if nvars == 1:
        return P.p_mul_uni(a, b, dcap)
    return P.p_mul_bi(a, b, dcap)


def _window(f: FieldSpec, ctx: PrecisionCtx, err: int, shift: int) -> int:
    """err, capped at the window of a value of valuation ``shift``: the
    d + 1 Laurent digits know nothing from z^(shift + d + 1) on.  The Gauss
    degree cap is a quotient, not a window (module docstring)."""
    return err if f.kind == GAUSS else min(err, shift + ctx.d + 1)


def _is_unit(f: FieldSpec, digits: dict) -> bool:
    """Whether the digits are a unit of the digit ring: their constant
    digit is nonzero below pi."""
    mono0 = (0,) * f.nvars
    return bool(f.pi_trunc({mono0: digits.get(mono0, 0)}, 1))


def reduce_scalar(x: Scalar, ctx: PrecisionCtx, err_target: int) -> ApproxScalar:
    """Truncated image of an exact scalar at error ``err_target``, by the
    one route the module docstring describes.  ``err_target`` has no
    default: the caller decides the precision (``ApproxDomain.err`` for
    the coercions of a domain).

    Raises ``NotExpandable`` when the denominator is not a unit of the
    expansion ring (Gauss model: constant term divisible by p).
    """
    f = x.field
    if x.is_zero():
        return ApproxScalar(f, ctx, 0, {}, err_target)
    a, b = f.poly_val(x.num), f.poly_val(x.den)
    shift = a - b
    err = _window(f, ctx, err_target, shift)
    if err <= shift:
        return ApproxScalar(f, ctx, shift, {}, err_target)
    num, den = f.pi_shift(x.num, -a), f.pi_shift(x.den, -b)
    if P.p_is_const(den):
        (c,) = den.values()
        if f.kind == GAUSS:   # a p-unit, inverted mod p^(err - shift)
            c = pow(c, -1, f.p ** (err - shift))
            num, c = {m: v * c for m, v in num.items()}, 1
        return ApproxScalar(f, ctx, shift, num, err, c)
    if not _is_unit(f, den):
        raise NotExpandable(
            "denominator is not a unit of the approximation ring")
    # the product is truncated below pi^(err - shift) by the normal form
    inv = ApproxScalar(f, ctx, 0, den, err - shift).inverse()
    return _from_capped(f, ctx, shift,
                        _conv(num, inv.coeffs, ctx.d, f.nvars), err, inv.den)


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

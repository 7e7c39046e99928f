"""Concrete valued differential fields and their exact elements.

Two computable field models are provided:

* ``gauss`` -- rational functions over Q in one or two variables, valued by
  the p-adic Gauss valuation at radius 1:  v(sum a_m x^m) = min_m v_p(a_m),
  normalized so v(p) = 1.  One derivation d/dx_j per variable.
* ``laurent`` -- rational functions over Q in one variable z, valued by the
  order of vanishing at z = 0 (v(z) = 1), with derivation d/dz.  The residue
  field has characteristic 0.

A ``Scalar`` is a reduced fraction of polynomials over Q.  All arithmetic is
exact, and skips the work the operands' shape makes dead: zero operands,
shared or constant denominators and single-term gcds (see ``Scalar`` and
``_reduce``).  Absolute values appear only through ``LogVal``
(lv(x) = -log_B |x|, so lv is the valuation itself under the
normalizations above).  Values are
immutable and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldMismatch
from .logval import INF, LogVal
from . import polys as P

GAUSS = "gauss"
LAURENT = "laurent"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A concrete complete non-archimedean differential field.

    ``kind`` is ``"gauss"`` or ``"laurent"``; ``p`` is the prime for the
    Gauss model (None for Laurent); ``variables`` names the variables, one
    derivation per variable.
    """

    kind: str
    p: int | None
    variables: tuple[str, ...]

    def __post_init__(self):
        if self.kind == GAUSS:
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"gauss field needs a prime p, got {self.p}")
            if len(self.variables) not in (1, 2):
                raise ValueError("gauss field supports 1 or 2 variables")
        elif self.kind == LAURENT:
            if self.p is not None:
                raise ValueError("laurent field has no prime")
            if len(self.variables) != 1:
                raise ValueError("laurent field has exactly 1 variable")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    # -- constructors -------------------------------------------------

    @staticmethod
    def gauss(p: int, variables=("x",)) -> "FieldSpec":
        if isinstance(variables, str):
            variables = (variables,)
        return FieldSpec(GAUSS, p, tuple(variables))

    @staticmethod
    def laurent(variable: str = "z") -> "FieldSpec":
        return FieldSpec(LAURENT, None, (variable,))

    # -- basic data ----------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def nderiv(self) -> int:
        return len(self.variables)

    @property
    def residue_char(self) -> int:
        """p(K): residue characteristic (0 for the Laurent model)."""
        return self.p if self.kind == GAUSS else 0

    # -- field constants ------------------------------------------------
    # lv_omega = -log_B omega(K); lv_dsp(j) = -log_B |d_j|_sp;
    # lv_rK(j) = lv_omega - lv of |d_j|_sp composed as lv(omega/|d_j|_sp).

    @property
    def lv_omega(self) -> LogVal:
        if self.kind == GAUSS:
            return LogVal(Fraction(1, self.p - 1))
        return LogVal(0)

    def lv_dsp(self, j: int = 0) -> LogVal:
        self._check_deriv(j)
        if self.kind == GAUSS:
            return LogVal(0)
        return LogVal(-1)

    def lv_rK(self, j: int = 0) -> LogVal:
        return self.lv_omega - self.lv_dsp(j)

    def constants(self) -> "FieldConstants":
        return FieldConstants(self.lv_omega,
                              tuple(self.lv_dsp(j) for j in range(self.nderiv)),
                              tuple(self.lv_rK(j) for j in range(self.nderiv)))

    def lv_factorial(self, i: int) -> LogVal:
        """lv(i!).  Legendre's formula for the Gauss model, 0 for Laurent."""
        if self.kind != GAUSS:
            return LogVal(0)
        p, s, n = self.p, 0, i
        while n:
            s += n % p
            n //= p
        return LogVal(Fraction(i - s, p - 1))

    def _check_deriv(self, j: int):
        if not 0 <= j < self.nderiv:
            raise ValueError(f"derivation index {j} out of range")

    # -- element constructors --------------------------------------------

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch("scalar from a different field")
            return value
        return Scalar(self, P.p_const(self.nvars, Fraction(value)))

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def var(self, j: int = 0) -> "Scalar":
        self._check_deriv(j)
        return Scalar(self, P.p_var(self.nvars, j))

    def from_fraction_polys(self, num: P.Poly, den: P.Poly) -> "Scalar":
        return Scalar(self, num, den)


@dataclass(frozen=True)
class FieldConstants:
    """The log-scale constants of a field: lv of omega(K), of each
    |d_j|_sp, and of each maximal radius r(K, d_j) = omega/|d_j|_sp."""

    lv_omega: LogVal
    lv_dsp: tuple
    lv_rK: tuple


class Scalar:
    """An exact element of a ``FieldSpec``: a reduced num/den pair.

    Canonical form: gcd(num, den) = 1, den is primitive (integer
    coefficients with gcd 1) with a positive leading coefficient, and is 1
    whenever it is constant.  The form is unique, so the short routes give
    the same scalar as the long ones: ``+`` returns a zero operand's
    partner and adds numerators over a shared denominator; ``*`` returns a
    zero operand (a product with denominator 1 is one copy in
    ``polys.p_mul``); ``derive`` of a scalar with denominator 1 derives
    the numerator only.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: FieldSpec, num: P.Poly, den: P.Poly | None = None):
        if den is None:
            den = P.p_const(field.nvars, 1)
        if P.p_is_zero(den):
            raise ZeroDivisionError("scalar with zero denominator")
        num, den = _reduce(num, den, field.nvars)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return P.p_is_zero(self.num)

    def is_one(self) -> bool:
        return self == self.field.one()

    def is_exact(self) -> bool:
        return True

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch("mixed fields in scalar arithmetic")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not o.num:
            return self
        if not self.num:
            return o
        if self.den == o.den:
            return Scalar(self.field, P.p_add(self.num, o.num), self.den)
        num = P.p_add(P.p_mul(self.num, o.den), P.p_mul(o.num, self.den))
        return Scalar(self.field, num, P.p_mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, P.p_neg(self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not self.num:
            return self
        if not o.num:
            return o
        return Scalar(self.field, P.p_mul(self.num, o.num),
                      P.p_mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(self.field, self.den, self.num)

    def is_invertible(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.field == other.field and P.p_equal(self.num, other.num)
                and P.p_equal(self.den, other.den))

    __hash__ = None

    # -- valuation and derivations ------------------------------------------

    def val(self) -> LogVal:
        """lv(x) = -log_B |x|; +infinity for zero."""
        if self.is_zero():
            return INF
        f = self.field
        if f.kind == GAUSS:
            return LogVal(P.p_min_vp(self.num, f.p) - P.p_min_vp(self.den, f.p))
        j = 0
        return LogVal(P.p_min_exp(self.num, j) - P.p_min_exp(self.den, j))

    def derive(self, j: int = 0) -> "Scalar":
        """Quotient-rule derivative with respect to variable j."""
        self.field._check_deriv(j)
        dn = P.p_derive(self.num, j)
        if P.p_is_const(self.den):
            return Scalar(self.field, dn)
        dd = P.p_derive(self.den, j)
        num = P.p_sub(P.p_mul(dn, self.den), P.p_mul(self.num, dd))
        return Scalar(self.field, num, P.p_mul(self.den, self.den))

    def taylor_coeff(self, j: int, i: int) -> "Scalar":
        """The i-th divided derivative d_j^i(x)/i!, computed exactly."""
        if i < 0:
            raise ValueError("negative derivative order")
        c = self
        for k in range(1, i + 1):
            c = c.derive(j) / k
        return c

    # -- misc ---------------------------------------------------------------

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        names = self.field.variables
        ns = P.p_to_str(self.num, names)
        if P.p_is_const(self.den):
            return ns
        return f"({ns})/({P.p_to_str(self.den, names)})"


def _reduce(num: P.Poly, den: P.Poly, nvars: int):
    """Canonicalize a fraction of polynomials.

    A zero numerator or a constant denominator needs no gcd.  When num or
    den is a single term, the gcd is the monomial ``P.p_mono_gcd`` and is
    divided out by an exponent shift; only the remaining gcds go to sympy.
    """
    if P.p_is_zero(num):
        return {}, P.p_const(nvars, 1)
    if P.p_is_const(den):
        c = next(iter(den.values()))
        if c != 1:
            num = P.p_scale(num, Fraction(1) / c)
        return num, P.p_const(nvars, 1)
    if len(num) == 1 or len(den) == 1:
        e = P.p_mono_gcd(num, den)
        if any(e):
            num, den = P.p_shift(num, e), P.p_shift(den, e)
    else:
        g = P.p_gcd(num, den, nvars)
        if not P.p_is_const(g):
            num = P.p_divexact(num, g, nvars)
            den = P.p_divexact(den, g, nvars)
    if P.p_is_const(den):
        return _reduce(num, den, nvars)
    # make the denominator primitive with positive content
    c = P.p_content(den)
    lead = den[max(den, key=P.p_sort_key)]
    if lead < 0:
        c = -c
    if c != 1:
        num = P.p_scale(num, Fraction(1) / c)
        den = P.p_scale(den, Fraction(1) / c)
    return num, den

"""Concrete valued differential fields and their exact elements.

Two computable field models are provided:

* ``gauss`` -- rational functions over Q in one or two variables, valued by
  the p-adic Gauss valuation at radius 1:  v(sum a_m x^m) = min_m v_p(a_m),
  normalized so v(p) = 1.  One derivation d/dx_j per variable.
* ``laurent`` -- rational functions over Q in one variable z, valued by the
  order of vanishing at z = 0 (v(z) = 1), with derivation d/dz.  The residue
  field has characteristic 0.

A ``Scalar`` is a reduced fraction of polynomials over Z.  All arithmetic is
exact, and skips the work the operands' shape makes dead: zero operands,
shared denominators (see ``Scalar``) and single-term gcds (``polys.p_gcd``).
Absolute values appear only through lvs: lv(x) = -log_B |x| is a
``Fraction`` (``LogVal``), the valuation itself under the normalizations
above, and lv(0) is the sentinel ``INF``.  Values are immutable and every
operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import FieldMismatch
from .logval import INF, LogVal
from . import polys as P

GAUSS = "gauss"
LAURENT = "laurent"


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


@dataclass(frozen=True)
class FieldSpec:
    """A concrete complete non-archimedean differential field.

    ``kind`` is ``"gauss"`` or ``"laurent"``; ``p`` is the prime for the
    Gauss model (None for Laurent); ``variables`` names the variables,
    distinct identifiers, one derivation per variable.  ``poly_val`` is
    the model's valuation on int polynomials, the one that ``Scalar.val``,
    truncation (``precision``) and the brute-force oracle read.
    ``pi_shift`` and ``pi_trunc`` multiply by and truncate at powers of
    the uniformizer pi (p, or z): the one truncation rule of the digits.
    """

    kind: str
    p: int | None
    variables: tuple[str, ...]

    def __post_init__(self):
        names = self.variables
        if len(set(names)) < len(names) or not all(map(str.isidentifier, names)):
            raise ValueError(f"variable names must be distinct identifiers: {names}")
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
            return LogVal(1, self.p - 1)
        return LogVal(0)

    def lv_dsp(self, j: int = 0) -> LogVal:
        self._check_deriv(j)
        if self.kind == GAUSS:
            return LogVal(0)
        return LogVal(-1)

    def lv_rK(self, j: int = 0) -> LogVal:
        return self.lv_omega - self.lv_dsp(j)

    def lv_factorial(self, i: int) -> LogVal:
        """lv(i!).  Legendre's formula for the Gauss model, 0 for Laurent."""
        if self.kind != GAUSS:
            return LogVal(0)
        p, s, n = self.p, 0, i
        while n:
            s += n % p
            n //= p
        return LogVal(i - s, p - 1)

    def poly_val(self, a: P.Poly) -> int:
        """lv of a nonzero int polynomial: the p-adic valuation of its
        content (Gauss), or its lowest exponent (Laurent)."""
        if self.kind == GAUSS:
            return P.p_min_vp(a, self.p)
        return 0 if (0,) in a else P.p_min_exp(a, 0)

    def pi_shift(self, a: P.Poly, k: int) -> P.Poly:
        """a * pi^k for the uniformizer pi: p (Gauss) or z (Laurent).  For
        k < 0, pi^-k must divide a, and the division is exact: by p^-k, or
        a shift of the z-exponent.  ``a`` itself for k = 0."""
        if not k:
            return a
        if self.kind == GAUSS:
            q = self.p ** abs(k)
            if k > 0:
                return {m: c * q for m, c in a.items()}
            return {m: c // q for m, c in a.items()}
        return {(m[0] + k,): c for m, c in a.items()}

    def pi_trunc(self, a: P.Poly, k: int) -> P.Poly:
        """The nonzero part of a below pi^k, in one pass: the digits mod p^k
        (Gauss), or the terms of z-degree < k (Laurent).  Both are ring maps
        on polynomials; mod p^k also commutes with d/dx_j."""
        if self.kind == GAUSS:
            if k <= 0:
                return {}
            q = self.p ** k
            return {m: r for m, c in a.items() if (r := c % q)}
        return {m: c for m, c in a.items() if c and m[0] < k}

    def _check_deriv(self, j: int):
        if not 0 <= j < self.nderiv:
            raise ValueError(f"derivation index {j} out of range")

    # -- element constructors --------------------------------------------

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch("scalar from a different field")
            return value
        q = Fraction(value)
        return Scalar(self, P.p_const(self.nvars, q.numerator),
                      P.p_const(self.nvars, q.denominator))

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def var(self, j: int = 0) -> "Scalar":
        self._check_deriv(j)
        return Scalar(self, P.p_var(self.nvars, j))


class Scalar:
    """An exact element of a ``FieldSpec``: a reduced num/den pair of
    polynomials with ``int`` coefficients.

    Canonical form: gcd(num, den) = 1 over Q, the coefficients of num and
    den together have gcd 1, and den's leading coefficient (by
    ``polys.p_sort_key``) is positive; 0 is {} over 1.  So 3/(2x) is
    (3, 2x) and x/6 + 1/4 is (2x + 3, 12).  The form is unique, so the
    short routes give the same scalar as the long ones: ``+`` returns a
    zero operand's partner and adds numerators over a shared denominator;
    ``*`` returns a zero operand (a product with denominator 1 is one copy
    in ``polys.p_mul``); ``derive`` of a scalar with a constant
    denominator derives the numerator only.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: FieldSpec, num: P.Poly, den: P.Poly | None = None):
        if den is None:
            den = P.p_const(field.nvars, 1)
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        num, den = _reduce(num, den, field.nvars)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

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
        return (self.field == other.field and self.num == other.num
                and self.den == other.den)

    __hash__ = None

    # -- valuation and derivations ------------------------------------------

    def val(self) -> LogVal:
        """lv(x) = -log_B |x|; +infinity for zero."""
        if self.is_zero():
            return INF
        f = self.field
        return LogVal(f.poly_val(self.num) - f.poly_val(self.den))

    def derive(self, j: int = 0) -> "Scalar":
        """Quotient-rule derivative with respect to variable j."""
        self.field._check_deriv(j)
        dn = P.p_derive(self.num, j)
        if P.p_is_const(self.den):
            return Scalar(self.field, dn, self.den)
        dd = P.p_derive(self.den, j)
        num = P.p_sub(P.p_mul(dn, self.den), P.p_mul(self.num, dd))
        return Scalar(self.field, num, P.p_mul(self.den, self.den))

    # -- misc ---------------------------------------------------------------

    def __repr__(self):
        return f"Scalar({self})"

    def rational_parts(self) -> tuple:
        """(num/c, den/c), c the content of den: rational coefficients
        over a primitive denominator, the form ``str`` prints."""
        c = gcd(*self.den.values())
        return ({m: Fraction(v, c) for m, v in self.num.items()},
                {m: v // c for m, v in self.den.items()})

    def __str__(self):
        names = self.field.variables
        num, den = self.rational_parts()
        ns = P.p_to_str(num, names)
        if P.p_is_const(den):
            return ns
        return f"({ns})/({P.p_to_str(den, names)})"


def _reduce(num: P.Poly, den: P.Poly, nvars: int):
    """Canonicalize a fraction of polynomials.

    ``P.p_gcd`` divides out the gcd (a single-term num or den, a constant
    den included, by its monomial shortcut), and its cofactors have
    content 1; the sign of den's leading coefficient is divided out last.
    """
    if not num:
        return {}, P.p_const(nvars, 1)
    _, num, den = P.p_gcd(num, den)
    if den[max(den, key=P.p_sort_key)] < 0:
        num, den = P.p_neg(num), P.p_neg(den)
    return num, den

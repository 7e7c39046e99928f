"""Twisted polynomials in one distinguished derivation.

Elements of K<T> are finite coefficient sequences (q_0, ..., q_n) indexed
by T-powers, subject to the commutation rule T*c = c*T + c' (c' the
derivative of c).  Multiplication is implemented twice on purpose: once by
the closed convolution formula

    (p * q)_i = sum_{j<=i} sum_{h>=j} p_h * C(h,j) * d^{h-j}(q_{i-j}),

and once by iterating the defining relation; the two routes must agree and
the test suite checks that they do.  Left and right Euclidean division are
exact, every one-sided ideal is principal, and Newton polygons are taken
over the points (i, val(q_i)) with the convention that a segment's slope is
the valuation of its roots (so slopes rise with shrinking root norms).

Coefficients live in an ``ExactDomain`` or ``ApproxDomain``; the algorithms
are identical in both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import FieldMismatch, NotMonic, ZeroPolynomial
from .logval import INF, LogVal
from .precision import ExactDomain


class TwistedPoly:
    """An element of K<T> for one derivation index."""

    __slots__ = ("domain", "deriv", "coeffs")

    def __init__(self, domain, deriv: int, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.domain = domain
        self.deriv = deriv
        self.coeffs = tuple(coeffs)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_list(domain, deriv: int, entries) -> "TwistedPoly":
        return TwistedPoly(domain, deriv, [domain.coerce(e) for e in entries])

    @staticmethod
    def zero(domain, deriv: int) -> "TwistedPoly":
        return TwistedPoly(domain, deriv, [])

    @staticmethod
    def one(domain, deriv: int) -> "TwistedPoly":
        return TwistedPoly(domain, deriv, [domain.one()])

    @staticmethod
    def t_power(domain, deriv: int, k: int) -> "TwistedPoly":
        return TwistedPoly(domain, deriv,
                           [domain.zero()] * k + [domain.one()])

    @staticmethod
    def constant(domain, deriv: int, c) -> "TwistedPoly":
        return TwistedPoly(domain, deriv, [domain.coerce(c)])

    # -- basic structure ------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.domain.zero()

    def leading(self):
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        if self.is_zero():
            return False
        return (self.leading() - self.domain.one()).is_zero()

    def map_domain(self, domain) -> "TwistedPoly":
        return TwistedPoly(domain, self.deriv,
                           [domain.coerce(c) for c in self.coeffs])

    def lift_exact(self) -> "TwistedPoly":
        """Exact lift of an approximate polynomial (identity when exact)."""
        if self.domain.is_exact:
            return self
        dom = ExactDomain(self.domain.field)
        return TwistedPoly(dom, self.deriv, [c.lift() for c in self.coeffs])

    def _check_compatible(self, other: "TwistedPoly"):
        if self.deriv != other.deriv:
            raise FieldMismatch("twisted polynomials for different derivations")
        if self.domain.field != other.domain.field:
            raise FieldMismatch("twisted polynomials over different fields")

    # -- additive ring structure ---------------------------------------------

    def __add__(self, other: "TwistedPoly") -> "TwistedPoly":
        self._check_compatible(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return TwistedPoly(self.domain, self.deriv,
                           [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __neg__(self) -> "TwistedPoly":
        return TwistedPoly(self.domain, self.deriv, [-c for c in self.coeffs])

    def __sub__(self, other: "TwistedPoly") -> "TwistedPoly":
        self._check_compatible(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return TwistedPoly(self.domain, self.deriv,
                           [self.coeff(i) - other.coeff(i) for i in range(n)])

    def scale_left(self, c) -> "TwistedPoly":
        """i(c) * P: plain left coefficient scaling."""
        c = self.domain.coerce(c)
        return TwistedPoly(self.domain, self.deriv,
                           [c * q for q in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, TwistedPoly):
            return NotImplemented
        if self.deriv != other.deriv:
            return False
        n = max(len(self.coeffs), len(other.coeffs))
        return all((self.coeff(i) - other.coeff(i)).is_zero() for i in range(n))

    __hash__ = None

    # -- multiplication, both routes ----------------------------------------

    def __mul__(self, other: "TwistedPoly") -> "TwistedPoly":
        return mul(self, other)

    def t_shift(self) -> "TwistedPoly":
        """T * P via the defining relation: coefficients shift and derive."""
        j = self.deriv
        out = [self.coeff(i - 1) + self.coeff(i).derive(j)
               for i in range(len(self.coeffs) + 1)]
        return TwistedPoly(self.domain, self.deriv, out)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c.is_zero():
                continue
            if i == 0:
                parts.append(f"({c})")
            elif i == 1:
                parts.append(f"({c})*T")
            else:
                parts.append(f"({c})*T^{i}")
        return " + ".join(parts)

    def __repr__(self):
        return f"TwistedPoly({self})"


def mul(p: TwistedPoly, q: TwistedPoly) -> TwistedPoly:
    """Product by the closed convolution formula."""
    p._check_compatible(q)
    if p.is_zero() or q.is_zero():
        return TwistedPoly.zero(p.domain, p.deriv)
    dp, dq, j = p.degree, q.degree, p.deriv
    # derivative towers of q's coefficients, up to order dp
    towers = []
    for c in q.coeffs:
        tower = [c]
        for _ in range(dp):
            tower.append(tower[-1].derive(j))
        towers.append(tower)
    out = [p.domain.zero() for _ in range(dp + dq + 1)]
    for h in range(dp + 1):
        ph = p.coeff(h)
        if ph.is_zero():
            continue
        for jj in range(h + 1):
            b = comb(h, jj)
            for k in range(dq + 1):
                term = towers[k][h - jj]
                if term.is_zero():
                    continue
                out[k + jj] = out[k + jj] + ph * (term if b == 1 else term * b)
    return TwistedPoly(p.domain, p.deriv, out)


def mul_relation(p: TwistedPoly, q: TwistedPoly) -> TwistedPoly:
    """Product by iterated application of T*c = c*T + c'.

    Independent route used to cross-check ``mul``.
    """
    p._check_compatible(q)
    acc = TwistedPoly.zero(p.domain, p.deriv)
    shifted = q
    for h in range(p.degree + 1):
        c = p.coeff(h)
        if not c.is_zero():
            acc = acc + shifted.scale_left(c)
        if h < p.degree:
            shifted = shifted.t_shift()
    return acc


def divmod_right(p: TwistedPoly, q: TwistedPoly) -> tuple[TwistedPoly, TwistedPoly]:
    """(D, R) with p = D*q + R and deg R < deg q."""
    return _divmod(p, q, right=True)


def divmod_left(p: TwistedPoly, q: TwistedPoly) -> tuple[TwistedPoly, TwistedPoly]:
    """(D, R) with p = q*D + R and deg R < deg q."""
    return _divmod(p, q, right=False)


def _divmod(p: TwistedPoly, q: TwistedPoly, right: bool):
    """Euclidean division by q on the right (D*q) or on the left (q*D).
    Each step writes one quotient coefficient a = lead(R) / lead(q) and
    cuts R - a*T^k*q below its top, which cancels up to a residue."""
    p._check_compatible(q)
    if q.is_zero():
        raise ZeroDivisionError("division by the zero twisted polynomial")
    dom, n = p.domain, q.degree
    quot = [dom.zero()] * max(p.degree - n + 1, 0)
    r = p
    qlead_inv = q.leading().inverse()
    while r.degree >= n:
        k = r.degree - n
        quot[k] = r.leading() * qlead_inv
        term = TwistedPoly(dom, p.deriv, [dom.zero()] * k + [quot[k]])
        r = r - (mul(term, q) if right else mul(q, term))
        r = TwistedPoly(dom, p.deriv, r.coeffs[:k + n])
    return TwistedPoly(dom, p.deriv, quot), r


def monicize(p: TwistedPoly) -> TwistedPoly:
    """Left-scale by the inverse leading coefficient; same left ideal."""
    if p.is_zero():
        raise ZeroPolynomial("cannot monicize the zero polynomial")
    if p.is_monic():
        return p
    return p.scale_left(p.leading().inverse())


# -- norms -----------------------------------------------------------------


def pi_norm(p: TwistedPoly, lv_t: LogVal) -> LogVal:
    """lv of the weighted sup norm sup_i |i! q_i| / t^i, for the geometric
    weight sequence pi(t) = (t^i) given as lv_t = -log_B t.

    The weights are valid whenever t <= r(K, d), i.e. lv_t >= lv_rK;
    general weight sequences are only accepted through the condition-(C)
    predicate.  Returns +infinity for the zero polynomial.  Coefficients
    that vanish at working precision contribute their error floor, so the
    result is always a certified lower bound.
    """
    return weighted_norm(p.domain.field, [c.val() for c in p.coeffs], lv_t)


def weighted_norm(field, lvs: list, lv_t: LogVal) -> LogVal:
    """min_i lv(i!) + lvs[i] - i lv_t, +infinity for no coefficients: the
    body of ``pi_norm`` for coefficient lvs, or for their error floors."""
    return min((field.lv_factorial(i) + x - lv_t * i
                for i, x in enumerate(lvs)), default=INF)


def check_condition_c(pi: list[LogVal], lv_rK: LogVal) -> bool:
    """Validity predicate for a weight sequence prefix, in log scale.

    True iff the ratio sequence pi_{i+1}/pi_i is non-decreasing and bounded
    by r(K, d): lv differences non-increasing and always >= lv_rK.
    """
    diffs = [pi[i + 1] - pi[i] for i in range(len(pi) - 1)]
    for i in range(1, len(diffs)):
        if diffs[i] > diffs[i - 1]:
            return False
    return all(d >= lv_rK for d in diffs)


# -- Newton polygons ---------------------------------------------------------


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull data for a monic twisted polynomial.

    ``slopes`` lists (root valuation, horizontal length) pairs sorted by
    ascending root valuation; ``at_zero`` counts roots at zero (missing low
    coefficients), reported separately since their slope is infinite.
    Lengths plus ``at_zero`` sum to the degree.
    """

    slopes: tuple
    at_zero: int


def newton_polygon(p: TwistedPoly) -> NewtonPolygon:
    if p.is_zero():
        raise ZeroPolynomial("newton polygon of the zero polynomial")
    if p.degree == 0:
        raise ZeroPolynomial("newton polygon needs positive degree")
    if not p.is_monic():
        raise NotMonic("newton polygon requires a monic polynomial")
    pts = []
    for i, c in enumerate(p.coeffs):
        if c.is_zero():
            continue
        pts.append((i, c.val()))
    # monic: the point (degree, 0) is present
    at_zero = pts[0][0]
    hull = _lower_hull(pts)
    slopes = []
    for (i1, v1), (i2, v2) in zip(hull, hull[1:]):
        sigma = Fraction(v2 - v1, i2 - i1)
        slopes.append((-sigma, i2 - i1))
    slopes.sort(key=lambda t: t[0])
    return NewtonPolygon(tuple(slopes), at_zero)


def _lower_hull(pts):
    pts = sorted(pts)
    hull = []
    for q in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the chord
            if (y2 - y1) * (q[0] - x1) >= (q[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(q)
    return hull

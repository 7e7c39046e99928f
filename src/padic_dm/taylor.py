"""Truncated power series: Taylor maps, solution matrices, pairings.

All infinite objects appear only as truncations to a finite order N;
windowed Hadamard estimates carry an explicit spread and never claim an
exact radius.  Divided factorials 1/i! are computed exactly in Q, which
keeps everything valid over both residue characteristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import AllZero
from .diffmod import DiffModule, RadiusEstimate, action_matrices
from .linalg import dot
from .scalarfield import Scalar


@dataclass(frozen=True)
class TruncSeries:
    """Coefficients a_0..a_N of a power series, exact up to order N."""

    coeffs: tuple

    @staticmethod
    def from_list(entries) -> "TruncSeries":
        return TruncSeries(tuple(entries))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int):
        return self.coeffs[i]

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        return TruncSeries(tuple(a + b for a, b in
                                 zip(self.coeffs[:n + 1], other.coeffs[:n + 1])))

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        return TruncSeries(tuple(dot(self.coeffs[:i + 1], other.coeffs[i::-1])
                                 for i in range(n + 1)))

    def derive_x(self) -> "TruncSeries":
        """Formal d/dX: order drops by one."""
        return TruncSeries(tuple(self.coeffs[i + 1] * (i + 1)
                                 for i in range(self.order)))

    def truncate(self, order: int) -> "TruncSeries":
        return TruncSeries(self.coeffs[:order + 1])

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return all((a - b).is_zero() for a, b in
                   zip(self.coeffs[:n + 1], other.coeffs[:n + 1]))

    __hash__ = None


def taylor_map(c: Scalar, j: int, n: int) -> TruncSeries:
    """Truncated image of the embedding c |-> (d^i(c)/i!)_i.

    A ring homomorphism up to order n, and an isometry onto series valued
    at the maximal radius: lv of coefficient i is at least lv(c) - i*lv_rK
    with equality at i = 0.
    """
    out = [c]
    cur = c
    for i in range(1, n + 1):
        cur = cur.derive(j) / i
        out.append(cur)
    return TruncSeries(tuple(out))


def solution_matrix(m: DiffModule, j: int, n: int) -> list:
    """Fundamental solution Y = sum_k (G_k/k!) X^k, truncated at order n.

    Satisfies the horizontal-section equation d/dX(Y) = Y * taylor(G_1)
    up to order n-1 (the Taylor image acts from the right with the
    column-action convention used throughout).
    """
    gs = islice(action_matrices(m, j), n + 1)
    entries = [[[e] for e in row] for row in next(gs)]
    fact = Fraction(1)
    for k, g in enumerate(gs, 1):
        fact *= k
        inv = Fraction(1, 1) / fact
        for a in range(m.dim):
            for b in range(m.dim):
                entries[a][b].append(g[a][b] * inv)
    return [[TruncSeries(tuple(e)) for e in row] for row in entries]


def hadamard_radius(s: TruncSeries, window: tuple[int, int]) -> RadiusEstimate:
    """Windowed estimate of lv(1/limsup |a_i|^{1/i}).

    Zero coefficients are skipped (|0|^{1/i} = 0 contributes nothing to the
    limsup); a window with no nonzero coefficient raises AllZero, the
    radius being +infinity at this precision.
    """
    lo, hi = window
    if not 1 <= lo <= hi <= s.order:
        raise ValueError("window must lie within [1, N]")
    samples = []
    for i in range(lo, hi + 1):
        a = s.coeff(i)
        if a.is_zero():
            continue
        samples.append(-(a.val() / i))
    if not samples:
        raise AllZero("all coefficients vanish in the window")
    return RadiusEstimate.of(samples, window)


def dual_pairing(m: DiffModule, x: list, s: list, n: int) -> TruncSeries:
    """The pairing series sum_i <s, x>_i X^i, <s, x>_i = s(T^i x / i!),
    exactly to order n, for the one derivation the module carries."""
    (j,) = m.derivations
    out = []
    w = list(x)
    fact = Fraction(1)
    for i in range(n + 1):
        if i:
            w = m.apply_T(j, w)
            fact *= i
        out.append(dot(s, w) / fact)
    return TruncSeries(tuple(out))


def biduality_transform(v: TruncSeries, j: int, n: int) -> TruncSeries:
    """Alternating Taylor transform w_i = sum_{a+k=i} (-1)^a d^k(v_a)/k!.

    An exact involution on coefficients 0..n: applying it twice returns
    the original coefficients (binomial cancellation).
    """
    if v.order < n:
        raise ValueError("pairing series too short for the requested order")
    # towers[a][k] = d^k(v_a) / k!
    towers = [taylor_map(v.coeff(a), j, n - a).coeffs for a in range(n + 1)]
    out = []
    for i in range(n + 1):
        acc = None
        for a in range(i + 1):
            term = towers[a][i - a]
            if a % 2 == 1:
                term = -term
            acc = term if acc is None else acc + term
        out.append(acc)
    return TruncSeries(tuple(out))

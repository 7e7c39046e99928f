"""Matrix-presented differential modules.

A module of dimension m over a field with derivations d_0..d_{r-1} stores
one m x m matrix per derivation it carries; T_j acts on coordinate vectors
by c |-> d_j(c) + G_j c, and the k-fold action satisfies the recurrence
G_{k+1} = d_j(G_k) + G_j G_k with G_0 = I.  Companion presentations,
cyclic vectors, duals and brute-force spectral estimates all live here.

A module built from a single twisted polynomial carries only that
derivation's matrix; modules over multi-derivation fields must satisfy the
integrability identity pairwise, which is enforced on construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import FieldMismatch, IntegrabilityError, NotMonic, SearchExhausted
from .logval import INF, LogVal
from . import linalg as la
from .twisted import TwistedPoly


class DiffModule:
    """A finite differential module presented by matrices."""

    __slots__ = ("domain", "dim", "mats")

    def __init__(self, domain, dim: int, mats, _checked: bool = False):
        """``mats``: sequence indexed by derivation, entries matrix or None."""
        field = domain.field
        mats = tuple(mats)
        if len(mats) != field.nderiv:
            raise ValueError("one matrix slot per field derivation expected")
        for g in mats:
            if g is not None and (len(g) != dim or any(len(r) != dim for r in g)):
                raise ValueError("action matrix shape does not match dim")
        self.domain = domain
        self.dim = dim
        self.mats = mats
        if not _checked:
            self._check_integrability()

    def _check_integrability(self):
        idx = self.derivations
        for a in idx:
            for b in idx:
                if a >= b:
                    continue
                ga, gb = self.mats[a], self.mats[b]
                lhs = la.mat_add(la.mat_derive(gb, a), la.mat_mul(gb, ga))
                rhs = la.mat_add(la.mat_derive(ga, b), la.mat_mul(ga, gb))
                if not la.mat_equal(lhs, rhs):
                    raise IntegrabilityError(
                        f"operators for derivations {a} and {b} do not commute")

    @property
    def field(self):
        return self.domain.field

    @property
    def derivations(self) -> tuple[int, ...]:
        return tuple(j for j, g in enumerate(self.mats) if g is not None)

    def mat(self, j: int) -> la.Matrix:
        g = self.mats[j]
        if g is None:
            raise ValueError(f"module carries no structure for derivation {j}")
        return g

    def apply_T(self, j: int, vec: list) -> list:
        """Coordinates of T_j . x for a coordinate vector x."""
        g = self.mat(j)
        out = [v.derive(j) for v in vec]
        for i in range(self.dim):
            acc = out[i]
            for t in range(self.dim):
                acc = acc + g[i][t] * vec[t]
            out[i] = acc
        return out

    def change_basis(self, w: la.Matrix) -> "DiffModule":
        """Gauge transform: columns of w are the new basis in old coordinates."""
        winv = la.inverse(w, self.domain)
        if winv is None:
            raise ValueError("basis matrix is not invertible")
        mats = []
        for j, g in enumerate(self.mats):
            if g is None:
                mats.append(None)
                continue
            mats.append(la.mat_mul(winv, la.mat_add(la.mat_derive(w, j),
                                                    la.mat_mul(g, w))))
        return DiffModule(self.domain, self.dim, mats, _checked=True)

    def map_domain(self, domain) -> "DiffModule":
        mats = []
        for g in self.mats:
            if g is None:
                mats.append(None)
            else:
                mats.append([[domain.coerce(e) for e in row] for row in g])
        return DiffModule(domain, self.dim, mats, _checked=True)

    def __repr__(self):
        return f"DiffModule(dim={self.dim}, derivations={self.derivations})"


@dataclass(frozen=True)
class ModuleMorphism:
    """A morphism source -> target given by its coordinate matrix.

    Columns of ``matrix`` are the images of the source basis in target
    coordinates.  With the coordinate action c |-> d(c) + G c, a matrix X
    presents a morphism exactly when  X G^src = d(X) + G^tgt X  for every
    shared derivation; this is validated on construction for exact
    domains and exposed as ``is_intertwining`` for truncated ones.
    """

    source: DiffModule
    target: DiffModule
    matrix: la.Matrix

    def __post_init__(self):
        if self.source.domain.is_exact and self.target.domain.is_exact:
            if not self.is_intertwining():
                raise ValueError("matrix does not intertwine the actions")

    def is_intertwining(self) -> bool:
        for j in self.source.derivations:
            if j not in self.target.derivations:
                continue
            lhs = la.mat_mul(self.matrix, self.source.mat(j))
            rhs = la.mat_add(la.mat_derive(self.matrix, j),
                             la.mat_mul(self.target.mat(j), self.matrix))
            if not la.mat_equal(lhs, rhs):
                return False
        return True


# -- constructions -------------------------------------------------------------


def from_operator(p: TwistedPoly) -> DiffModule:
    """Companion presentation of K<T>/K<T>.P, of dimension deg P.

    Basis: classes of T^i.  The matrix has e_i |-> e_{i+1} below the top
    row and the negated low coefficients of P in the last column.
    """
    if not p.is_monic():
        raise NotMonic("companion presentation needs a monic operator")
    n = p.degree
    dom = p.domain
    g = la.zeros(dom, n, n)
    for i in range(n - 1):
        g[i + 1][i] = dom.one()
    for h in range(n):
        g[h][n - 1] = g[h][n - 1] - p.coeff(h)
    mats = [None] * dom.field.nderiv
    mats[p.deriv] = g
    return DiffModule(dom, n, mats, _checked=True)


def action_matrices(m: DiffModule, j: int):
    """Yield G_0 = I, G_1, G_2, ...: the matrices of the k-fold T_j action."""
    g1 = m.mat(j)
    acc = la.identity(m.domain, m.dim)
    while True:
        yield acc
        acc = la.mat_add(la.mat_derive(acc, j), la.mat_mul(g1, acc))


def iterate_G(m: DiffModule, j: int, k: int) -> la.Matrix:
    """Matrix of the k-fold T_j action on the chosen basis."""
    if k < 0:
        raise ValueError("negative power")
    return next(islice(action_matrices(m, j), k, None))


def dual(m: DiffModule) -> DiffModule:
    """Dual presentation: negated transpose of every action matrix."""
    mats = []
    for g in m.mats:
        mats.append(None if g is None else la.mat_neg(la.transpose(g)))
    return DiffModule(m.domain, m.dim, mats, _checked=True)


def direct_sum(m1: DiffModule, m2: DiffModule) -> DiffModule:
    if m1.domain != m2.domain:
        raise FieldMismatch("direct sum over different fields or precisions")
    if m1.derivations != m2.derivations:
        raise FieldMismatch("direct sum of modules with different structure")
    dom = m1.domain
    n = m1.dim + m2.dim
    mats = []
    for j, g1 in enumerate(m1.mats):
        if g1 is None:
            mats.append(None)
            continue
        g2 = m2.mats[j]
        g = la.zeros(dom, n, n)
        for i in range(m1.dim):
            for t in range(m1.dim):
                g[i][t] = g1[i][t]
        for i in range(m2.dim):
            for t in range(m2.dim):
                g[m1.dim + i][m1.dim + t] = g2[i][t]
        mats.append(g)
    return DiffModule(dom, n, mats, _checked=True)


# -- cyclic vectors --------------------------------------------------------------


def _candidate_schedule(m: DiffModule, j: int):
    """Documented search order: basis vectors, variable staircases, then a
    fixed budget of seeded low-height combinations."""
    dom, n = m.domain, m.dim
    one, zero = dom.one(), dom.zero()
    for i in range(n):
        vec = [zero] * n
        vec[i] = one
        yield vec
    w = dom.variable(j)
    for start in range(n):
        vec = []
        pw = one
        for i in range(n):
            vec.append(pw if i >= start else zero)
            if i >= start:
                pw = pw * w
        yield vec
    rng = random.Random(20240 + j)
    for _ in range(20):
        vec = []
        for _i in range(n):
            a, b = rng.randint(-3, 3), rng.randint(-2, 2)
            vec.append(dom.coerce(a) + w * dom.coerce(b))
        yield vec


def cyclic_presentations(m: DiffModule, j: int):
    """Yield (P, C) pairs over the candidate schedule.

    P is monic with K<T_j>/(P) isomorphic to (M, T_j); the columns of C
    are v, T v, ..., T^{m-1} v for the cyclic vector v that produced P.
    """
    if m.dim == 0:
        raise ValueError("cyclic vector of the zero module")
    for v in _candidate_schedule(m, j):
        cols = [v]
        for _ in range(m.dim - 1):
            cols.append(m.apply_T(j, cols[-1]))
        cmat = la.from_columns(cols)
        top = m.apply_T(j, cols[-1])
        sol = la.solve(cmat, la.from_columns([top]))
        if sol is None:
            continue
        coeffs = [-sol[i][0] for i in range(m.dim)] + [m.domain.one()]
        yield TwistedPoly(m.domain, j, coeffs), cmat


def cyclic_data(m: DiffModule, j: int) -> tuple[TwistedPoly, la.Matrix]:
    for pres in cyclic_presentations(m, j):
        return pres
    raise SearchExhausted("no cyclic vector found within the candidate budget")


def cyclic_vector(m: DiffModule, j: int) -> TwistedPoly:
    return cyclic_data(m, j)[0]


# -- brute-force spectral estimates ------------------------------------------------


@dataclass(frozen=True)
class RadiusEstimate:
    """Windowed estimate of the extrinsic radius, in log scale.

    ``spread`` is the variation of the per-step clipped estimates across
    the window; it is a convergence indicator, not a guaranteed bound.
    """

    lv: LogVal
    spread: Fraction
    window: tuple[int, int]


def spectral_radius_bruteforce(m: DiffModule, j: int, kmax: int) -> RadiusEstimate:
    """Estimate lv of omega / max(|d_j|_sp, limsup |G_k|^{1/k}).

    Uses the minimum entrywise valuation as matrix size and a tail window
    k in [kmax/2, kmax]; the result is clipped to lie in [lv_rK, ...).
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    field = m.field
    lv_omega = field.lv_omega
    dsp = field.lv_dsp(j)
    lo = max(1, (kmax + 1) // 2)
    per_step = []
    for k, acc in enumerate(islice(action_matrices(m, j), kmax + 1)):
        if k < lo:
            continue
        vk = INF
        for row in acc:
            for e in row:
                v = e.val()
                if v < vk:
                    vk = v
        ratio = vk / k if not vk.is_infinite else INF
        per_step.append(lv_omega - min(dsp, ratio))
    est = max(per_step)
    finite = [e.value for e in per_step]
    spread = max(finite) - min(finite)
    return RadiusEstimate(est, spread, (lo, kmax))

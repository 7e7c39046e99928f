"""Matrix-presented differential modules.

A module of dimension m over a field with derivations d_0..d_{r-1} stores
one m x m matrix per derivation it carries; T_j acts on coordinate vectors
by c |-> d_j(c) + G_j c, and the k-fold action satisfies the recurrence
G_{k+1} = d_j(G_k) + G_j G_k with G_0 = I.  Companion presentations,
cyclic vectors, duals and brute-force spectral estimates all live here.

Over exact scalars the recurrence runs on integer numerators over one
common denominator (``action_numerators``): G_k = H_k / delta^k, where
delta is the lcm of the integer polynomial denominators of G_1 and
B = delta G_1.  Then H_0 = I and
H_{k+1} = delta d_j(H_k) + (B - k d_j(delta) I) H_k, with no gcd per
step.  The Gauss and Laurent valuations are multiplicative, so
lv(G_k) = lv(H_k) - k lv(delta).  The Krylov columns of a cyclic-vector
candidate v share that recurrence, started at v instead of I: T^k v is
u_k / delta^k, and ``cyclic_presentations`` solves for P on the u_k by
fraction-free elimination before it builds any ``Scalar``.  Over
truncated scalars every step of both is ``DiffModule.act``, the one T_j
action.

The brute-force oracle reads lv(H_k) only below k (lv(delta) + lv_dsp),
so it steps H_k truncated below pi^E, E = kmax (lv(delta) + lv_dsp), by
the field's one truncation rule ``FieldSpec.pi_trunc``: mod p^E over the
Gauss model, which commutes with d_j, and without the terms of z-degree
>= E over the Laurent model, where each derivative is multiplied back up
by delta.  When E <= 0 it steps nothing, since no H_k can pass the clip
(see ``spectral_radius_bruteforce``).

A module built from a single twisted polynomial carries only that
derivation's matrix; modules over multi-derivation fields must satisfy the
integrability identity pairwise, which is enforced on construction.  A
module derived from another (a gauge transform, a change of domain, the
dual, a direct sum, a restriction to a stable span in ``factorize``) is
built by ``DiffModule.mapped``, the one walk over the source's carried
derivations; it trusts integrability, which these constructions
preserve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations, islice

from .errors import FieldMismatch, IntegrabilityError, NotMonic, SearchExhausted
from .logval import INF, LogVal
from . import linalg as la
from . import polys as P
from .scalarfield import Scalar
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
        """T_a T_b = T_b T_a on the basis: d_a(G_b) + G_a G_b equals
        d_b(G_a) + G_b G_a for every pair of carried derivations."""
        for a, b in combinations(self.derivations, 2):
            if not la.mat_equal(self.act(a, self.mats[b]),
                                self.act(b, self.mats[a])):
                raise IntegrabilityError(
                    f"operators for derivations {a} and {b} do not commute")

    @property
    def field(self):
        return self.domain.field

    @property
    def derivations(self) -> tuple[int, ...]:
        return tuple(j for j, g in enumerate(self.mats) if g is not None)

    def mat(self, j: int) -> la.Matrix:
        """G_j; FieldMismatch when the module carries no derivation j."""
        g = self.mats[j] if 0 <= j < len(self.mats) else None
        if g is None:
            raise FieldMismatch(
                f"module carries no structure for derivation {j}")
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

    def act(self, j: int, x: la.Matrix) -> la.Matrix:
        """d_j(x) + G_j x: T_j applied to each column of x."""
        return la.from_columns([self.apply_T(j, col) for col in la.columns(x)])

    def change_basis(self, w: la.Matrix) -> "DiffModule":
        """Gauge transform: columns of w are the new basis in old coordinates."""
        winv = la.inverse(w, self.domain)
        if winv is None:
            raise ValueError("basis matrix is not invertible")
        return self.mapped(self.domain, self.dim,
                           lambda j, _g: la.mat_mul(winv, self.act(j, w)))

    def map_domain(self, domain) -> "DiffModule":
        return self.mapped(domain, self.dim, lambda _j, g: [
            [domain.coerce(e) for e in row] for row in g])

    def mapped(self, domain, dim: int, f) -> "DiffModule":
        """The module over ``domain`` of dimension ``dim`` whose matrix for
        each carried derivation j is f(j, G_j); absent derivations stay
        absent.  Integrability is trusted: f must map commuting actions to
        commuting ones."""
        return DiffModule(domain, dim, [None if g is None else f(j, g)
                                        for j, g in enumerate(self.mats)],
                          _checked=True)

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
        return all(la.mat_equal(la.mat_mul(self.matrix, self.source.mat(j)),
                                self.target.act(j, self.matrix))
                   for j in self.source.derivations
                   if j in self.target.derivations)


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


def _integer_form(g1: la.Matrix, nvars: int) -> tuple:
    """(delta, B) with G_1 = B / delta and ``int`` coefficients throughout:
    delta is the lcm in Z[x] of the denominators of G_1's entries, so
    their integer contents enter it through the content gcd, and
    B = delta G_1.  A single-term gcd or divisor takes the monomial
    shortcut of ``P.p_gcd`` and ``P.p_divexact``.
    """
    delta = P.p_const(nvars, 1)
    for row in g1:
        for e in row:
            if e.den != delta:
                delta = P.p_mul(delta, P.p_gcd(delta, e.den)[2])
    return delta, [[e.num if e.den == delta else
                    P.p_mul(e.num, P.p_divexact(delta, e.den)) for e in row]
                   for row in g1]


def action_numerators(m: DiffModule, j: int,
                      start: la.Matrix | None = None) -> tuple:
    """The G_k recurrence: (delta, steps), where ``steps()`` iterates H_0,
    H_1, H_2, ... with H_k / delta^k = T_j^k applied to each column of
    H_0 = ``start``.

    The default start is I, which makes G_k = H_k / delta^k the matrix of
    the k-fold T_j action.  Over an exact domain, delta, ``start`` (the
    numerators of a block with polynomial entries) and the entries of H_k
    are polynomial dicts with ``int`` coefficients, B = delta G_1 (see
    ``_integer_form``) and H_{k+1} = delta d_j(H_k) + (B - k d_j(delta) I)
    H_k, which builds no ``Scalar`` and takes no gcd; both valuations are
    multiplicative, so lv(G_k) = lv(H_k) - k lv(delta).  There
    ``steps(trim)`` applies ``trim``, a map on such polynomials, to every
    H_k after H_0; ``spectral_radius_bruteforce`` says when the trimmed
    steps stay exact.  Over an ``ApproxDomain``, delta is None (read 1)
    and H_{k+1} = T_j H_k is ``DiffModule.act``.
    """
    n = m.dim
    if not m.domain.is_exact:
        def steps():
            h = la.identity(m.domain, n) if start is None else start
            while True:
                yield h
                h = m.act(j, h)
        return None, steps
    one = P.p_const(m.field.nvars, 1)
    delta, b = _integer_form(m.mat(j), m.field.nvars)
    ddelta = P.p_derive(delta, j)
    scaled = delta != one

    def steps(trim=None):
        h = start
        if h is None:
            h = [[one if i == t else {} for t in range(n)] for i in range(n)]
        k = 0
        while True:
            yield h
            d = [[P.p_derive(e, j) for e in row] for row in h]
            if scaled:
                d = [[P.p_mul(delta, e) for e in row] for row in d]
            bk = b
            if ddelta and k:
                kd = {mono: -k * c for mono, c in ddelta.items()}
                bk = [[P.p_add(e, kd) if i == t else e
                       for t, e in enumerate(row)] for i, row in enumerate(b)]
            h = [[P.p_add(d[i][t], reduce(P.p_add, map(P.p_mul, bk[i], col)))
                  for t, col in enumerate(zip(*h))] for i in range(n)]
            if trim is not None:
                h = [[trim(e) for e in row] for row in h]
            k += 1

    return delta, steps


def action_matrices(m: DiffModule, j: int):
    """Yield G_0 = I, G_1, G_2, ...: the matrices of the k-fold T_j action,
    each built from its numerator (``action_numerators``)."""
    delta, steps = action_numerators(m, j)
    hs = steps()
    if delta is None:
        yield from hs
        return
    den = {(0,) * m.field.nvars: 1}
    for h in hs:
        yield [[Scalar(m.field, e, den) for e in row] for row in h]
        den = P.p_mul(den, delta)


def iterate_G(m: DiffModule, j: int, k: int) -> la.Matrix:
    """Matrix of the k-fold T_j action on the chosen basis."""
    return next(islice(action_matrices(m, j), k, None))


def dual(m: DiffModule) -> DiffModule:
    """Dual presentation: negated transpose of every action matrix."""
    return m.mapped(m.domain, m.dim,
                    lambda _j, g: la.mat_neg(la.transpose(g)))


def direct_sum(m1: DiffModule, m2: DiffModule) -> DiffModule:
    if m1.domain != m2.domain:
        raise FieldMismatch("direct sum over different fields or precisions")
    if m1.derivations != m2.derivations:
        raise FieldMismatch("direct sum of modules with different structure")
    n1, n2, zero = m1.dim, m2.dim, m1.domain.zero()
    return m1.mapped(m1.domain, n1 + n2, lambda j, g1: (
        [row + [zero] * n2 for row in g1]
        + [[zero] * n1 + row for row in m2.mats[j]]))


# -- cyclic vectors --------------------------------------------------------------


def _candidate_schedule(m: DiffModule, j: int):
    """Documented search order: basis vectors, variable staircases, a
    fixed budget of seeded low-height combinations, then one spaced
    staircase."""
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
    # (x^(n*i))_i: a constant nilpotent part can cancel the staircase and
    # every degree-1 candidate above
    wn = one
    for _ in range(n):
        wn = wn * w
    vec = [one]
    for _ in range(n - 1):
        vec.append(vec[-1] * wn)
    yield vec


def cyclic_presentations(m: DiffModule, j: int):
    """Yield (P, C) pairs over the candidate schedule.

    P is monic with K<T_j>/(P) isomorphic to (M, T_j); the columns of C
    are v, T v, ..., T^{m-1} v for the cyclic vector v that produced P.

    The columns are the G_k recurrence started at v
    (``action_numerators``).  Over an ``ApproxDomain`` they come from
    ``DiffModule.act`` and the solve is the valuation-pivoted
    ``linalg.solve``.  Over an exact domain the candidates have polynomial
    entries, so T^k v = u_k / delta^k; with U = [u_0 .. u_{m-1}], P's low
    coefficients are -y_k / delta^(m-k), where U y = u_m is solved by
    fraction-free Gauss-Jordan on the integer polynomials
    (``linalg.solve_fraction_free``); no ``Scalar`` is built before a
    candidate is accepted.
    """
    if m.dim == 0:
        raise ValueError("cyclic vector of the zero module")
    n, dom = m.dim, m.domain
    for v in _candidate_schedule(m, j):
        start = [[e.num if dom.is_exact else e] for e in v]
        delta, steps = action_numerators(m, j, start)
        us = [[e for (e,) in u] for u in islice(steps(), n + 1)]
        if delta is None:
            cmat = la.from_columns(us[:n])
            sol = la.solve(cmat, la.from_columns(us[n:]))
            if sol is None:
                continue
            coeffs = [-sol[i][0] for i in range(n)]
        else:
            sol = la.solve_fraction_free(la.from_columns(us[:n]), us[n])
            if sol is None:
                continue
            y, det = sol
            field = m.field
            pows = list(accumulate([delta] * n, P.p_mul,
                                   initial=P.p_const(field.nvars, 1)))
            coeffs = [Scalar(field, P.p_neg(y[k]), P.p_mul(det, pows[n - k]))
                      for k in range(n)]
            cmat = [[Scalar(field, u[i], pows[k]) for k, u in enumerate(us[:n])]
                    for i in range(n)]
        yield TwistedPoly(dom, j, coeffs + [dom.one()]), cmat


def cyclic_data(m: DiffModule, j: int) -> tuple[TwistedPoly, la.Matrix]:
    for pres in cyclic_presentations(m, j):
        return pres
    raise SearchExhausted("no cyclic vector found within the candidate budget")


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

    @staticmethod
    def of(samples: list, window: tuple[int, int]) -> "RadiusEstimate":
        """The largest of the per-step estimates, with their spread."""
        return RadiusEstimate(max(samples), max(samples) - min(samples),
                              window)


def spectral_radius_bruteforce(m: DiffModule, j: int, kmax: int) -> RadiusEstimate:
    """Estimate lv of omega / max(|d_j|_sp, limsup |G_k|^{1/k}).

    Uses the minimum entrywise valuation as matrix size and a tail window
    k in [kmax/2, kmax]; step k gives lv_omega - min(lv_dsp, lv(G_k)/k), so
    the result is clipped to lie in [lv_rK, ...).

    Over an exact domain lv(G_k) = lv(H_k) - k lv(delta)
    (``action_numerators``), and step k reads lv(H_k) only where it lies
    below k (lv(delta) + lv_dsp); from there up the clip returns lv_dsp.
    With E = kmax (lv(delta) + lv_dsp), an integer, the recurrence is
    stepped on H_k truncated below pi^E (``FieldSpec.pi_trunc``), so that
    every valuation below E stays exact, and a truncated entry that
    vanishes has lv >= E, which the clip reads as lv_dsp too.

    * Gauss (lv_dsp = 0): the int coefficients of every H_k are reduced
      mod p^E.  Z[x] -> (Z/p^E)[x] is a ring map that commutes with d_j,
      so H_k mod p^E is exact at every step.
    * Laurent (lv_dsp = -1): the terms of z-degree >= E are dropped.  If
      H_k and its truncation differ only in degrees >= E, then so do the
      two H_{k+1}: B, d(delta) and delta have no negative powers, and the
      one derivative is multiplied by delta, which gives back at least
      the degree it took (lv(delta) >= 2 whenever E > 0).
    * If E <= 0, no H_k can pass the clip: every step of the window gives
      lv_omega - lv_dsp, with spread 0, and nothing is stepped.

    Each bound is tight: a valuation E - 1 of H_kmax can set the estimate
    (``tests/test_oracle.py`` pins one module per bound).  Over an
    ``ApproxDomain`` G_k is stepped as it is.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    field = m.field
    lv_omega = field.lv_omega
    dsp = field.lv_dsp(j)
    lo = max(1, (kmax + 1) // 2)
    delta, steps = action_numerators(m, j)
    if delta is None:
        hs = steps()

        def size(h, _k):
            return min((e.val() for row in h for e in row), default=INF)
    else:
        lv_delta = field.poly_val(delta)
        edge = int(kmax * (lv_delta + dsp))
        if edge <= 0:
            return RadiusEstimate.of([lv_omega - dsp], (lo, kmax))
        hs = steps(lambda a: field.pi_trunc(a, edge))

        def size(h, k):
            vs = [field.poly_val(e) for row in h for e in row if e]
            return LogVal(min(vs) - k * lv_delta) if vs else INF
    per_step = []
    for k, h in enumerate(islice(hs, kmax + 1)):
        if k < lo:
            continue
        per_step.append(lv_omega - min(dsp, size(h, k) / k))
    return RadiusEstimate.of(per_step, (lo, kmax))

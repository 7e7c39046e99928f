"""Subsidiary radii of convergence, log scale.

The radius multiset of a module is computed from the Newton polygon of a
cyclic operator: a hull segment whose roots have valuation s and norm
lambda = B^{-s} contributes lv(omega/lambda) = lv_omega - s when the roots
are visible (lambda > |d|_sp), and is clipped to the maximal radius
lv_rK otherwise.  Roots at zero are always clipped.  Every profile is
cross-checkable against the brute-force spectral estimate, and the
rationality of interior radii is verified by an advisory report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateFailure, ZeroDegree
from .logval import LogVal
from .diffmod import DiffModule, cyclic_data, spectral_radius_bruteforce
from .twisted import TwistedPoly, newton_polygon

# Order of the brute-force spectral estimate that ``profile(check=True)``
# checks its maximal radius against (the CLI checks against the estimate
# it reports instead).  It is passed to the oracle positionally, where a
# tracer counting oracle steps reads it.
CHECK_KMAX = 20


@dataclass(frozen=True)
class RadiusProfile:
    """Finite multiset of log-radii with multiplicities.

    Invariants: multiplicities sum to ``dim``; every lv lies at or above
    lv_rK of the derivation; support size is at most ``dim``.

    ``boundary_clipped`` says that one slope of the cyclic operator the
    profile was read from lies exactly at lv_dsp.  Clipped slopes are not
    invariants of the module, so the flag can depend on the cyclic vector
    (``profile`` reads the first candidate, ``Decomposition.profile`` the
    one that was split); equality of profiles ignores it.
    """

    entries: tuple          # ((LogVal, int), ...) sorted ascending by lv
    dim: int
    deriv: int
    boundary_clipped: bool = False

    @staticmethod
    def from_dict(d: dict, dim: int, deriv: int,
                  boundary_clipped: bool = False) -> "RadiusProfile":
        items = tuple(sorted(d.items(), key=lambda kv: kv[0]))
        return RadiusProfile(items, dim, deriv, boundary_clipped)

    def as_dict(self) -> dict:
        return dict(self.entries)

    @property
    def support(self) -> tuple:
        return tuple(lv for lv, _ in self.entries)

    def multiplicity(self, lv: LogVal) -> int:
        return self.as_dict().get(lv, 0)

    def max_lv(self) -> LogVal:
        if not self.entries:
            raise ValueError("empty profile")
        return self.entries[-1][0]

    def union(self, other: "RadiusProfile") -> "RadiusProfile":
        if self.deriv != other.deriv:
            raise ValueError("profiles for different derivations")
        d = self.as_dict()
        for lv, m in other.entries:
            d[lv] = d.get(lv, 0) + m
        return RadiusProfile.from_dict(d, self.dim + other.dim, self.deriv,
                                       self.boundary_clipped or other.boundary_clipped)

    def __eq__(self, other):
        if not isinstance(other, RadiusProfile):
            return NotImplemented
        return self.entries == other.entries and self.dim == other.dim

    def __hash__(self):
        return hash((self.entries, self.dim))


@dataclass(frozen=True)
class MultiRadiusProfile:
    """Radius profile keyed by one log-radius per derivation."""

    entries: tuple          # ((key tuple of LogVal, int), ...)
    dim: int

    @staticmethod
    def from_dict(d: dict, dim: int) -> "MultiRadiusProfile":
        items = tuple(sorted(d.items(), key=lambda kv: kv[0]))
        return MultiRadiusProfile(items, dim)

    def marginal(self, pos: int, deriv: int) -> RadiusProfile:
        """Sum multiplicities over all but one key coordinate."""
        out: dict = {}
        for key, m in self.entries:
            out[key[pos]] = out.get(key[pos], 0) + m
        return RadiusProfile.from_dict(out, self.dim, deriv)


def radii_from_polygon(p: TwistedPoly) -> RadiusProfile:
    """Clipped radius multiset of K<T>/(P) from the Newton polygon of P."""
    if not p.is_zero() and p.degree == 0:
        raise ZeroDegree("radii need an operator of positive degree")
    poly = newton_polygon(p)  # validates monic / nonzero
    fld = p.domain.field
    lv_omega = fld.lv_omega
    lv_dsp = fld.lv_dsp(p.deriv)
    lv_rk = fld.lv_rK(p.deriv)
    out: dict = {}
    boundary = False
    if poly.at_zero:
        out[lv_rk] = out.get(lv_rk, 0) + poly.at_zero
    for s, length in poly.slopes:
        if s < lv_dsp:
            lv = lv_omega - s
        else:
            if s == lv_dsp:
                boundary = True
            lv = lv_rk
        out[lv] = out.get(lv, 0) + length
    return RadiusProfile.from_dict(out, p.degree, p.deriv, boundary)


def profile(m: DiffModule, j: int, check: bool = True) -> RadiusProfile:
    """Radius profile of a module: cyclic vector, then polygon radii.

    With ``check`` the profile is checked (``check_profile``) against the
    brute-force spectral estimate of order CHECK_KMAX.
    """
    if m.dim == 0:
        return RadiusProfile.from_dict({}, 0, j)
    p, _ = cyclic_data(m, j)
    prof = radii_from_polygon(p)
    if check:
        check_profile(prof, spectral_radius_bruteforce(m, j, CHECK_KMAX),
                      m.field)
    return prof


def check_profile(prof: RadiusProfile, est, fld) -> None:
    """Cross-validate the maximal-lv entry against a brute-force estimate.

    The two must agree within the estimate's spread plus the factorial
    wobble allowance; disagreement raises CertificateFailure.  An empty
    profile passes.
    """
    if not prof.entries:
        return
    tol = est.spread + Fraction(1, 2) + fld.lv_omega
    got = prof.max_lv()
    if abs(got - est.lv) > tol:
        raise CertificateFailure(
            f"polygon radius {got} disagrees with brute-force {est.lv} "
            f"(spread {est.spread})")


@dataclass(frozen=True)
class RationalityReport:
    """Advisory rationality check on interior radii.

    Interior entries (lv > lv_rK) must have rational lv -- automatic in
    this exact representation -- and are additionally tested against the
    finer lattice condition mult * (lv - lv_omega) integral; failures of
    the finer test are flags, never errors.
    """

    entries: tuple
    ok: bool
    advisory_ok: bool


def check_rationality(prof: RadiusProfile, fld) -> RationalityReport:
    lv_rk = fld.lv_rK(prof.deriv)
    lv_omega = fld.lv_omega
    rows = []
    advisory_ok = True
    for lv, mult in prof.entries:
        if lv == lv_rk:
            rows.append((lv, mult, "skipped-boundary"))
            continue
        fine = (lv - lv_omega) * mult
        if fine.denominator == 1:
            rows.append((lv, mult, "pass"))
        else:
            advisory_ok = False
            rows.append((lv, mult, "flag"))
    return RationalityReport(tuple(rows), True, advisory_ok)

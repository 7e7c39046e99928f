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

from collections import Counter
from dataclasses import dataclass, field
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


def _tally(pairs) -> tuple:
    """((key, mult), ...) ascending by key: the multiplicities of repeated
    keys summed, zero totals dropped."""
    counts = Counter()
    for key, mult in pairs:
        counts[key] += mult
    return tuple(sorted(((k, m) for k, m in counts.items() if m),
                        key=lambda kv: kv[0]))


@dataclass(frozen=True)
class RadiusProfile:
    """Finite multiset of log-radii with multiplicities, built by ``of``
    from (lv, mult) pairs.

    Invariants: multiplicities sum to ``dim``; every lv lies at or above
    lv_rK of the derivation; support size is at most ``dim``.

    ``boundary_clipped`` says that one slope of the cyclic operator the
    profile was read from lies exactly at lv_dsp.  Clipped slopes are not
    invariants of the module, so the flag can depend on the cyclic vector
    (``profile`` reads the first candidate, ``Decomposition.profile`` the
    one that was split).  Equality and hashing read only ``entries`` and
    ``dim``.
    """

    entries: tuple          # ((LogVal, int), ...) sorted ascending by lv
    dim: int
    deriv: int = field(compare=False)
    boundary_clipped: bool = field(default=False, compare=False)

    @staticmethod
    def of(pairs, dim: int, deriv: int,
           boundary_clipped: bool = False) -> "RadiusProfile":
        return RadiusProfile(_tally(pairs), dim, deriv, boundary_clipped)

    @property
    def support(self) -> tuple:
        return tuple(lv for lv, _ in self.entries)

    def max_lv(self) -> LogVal:
        if not self.entries:
            raise ValueError("empty profile")
        return self.entries[-1][0]

    def union(self, other: "RadiusProfile") -> "RadiusProfile":
        if self.deriv != other.deriv:
            raise ValueError("profiles for different derivations")
        return RadiusProfile.of(self.entries + other.entries,
                                self.dim + other.dim, self.deriv,
                                self.boundary_clipped or other.boundary_clipped)


@dataclass(frozen=True)
class MultiRadiusProfile:
    """Radius profile keyed by one log-radius per derivation."""

    entries: tuple          # ((key tuple of LogVal, int), ...)
    dim: int

    @staticmethod
    def of(pairs, dim: int) -> "MultiRadiusProfile":
        return MultiRadiusProfile(_tally(pairs), dim)

    def marginal(self, pos: int, deriv: int) -> RadiusProfile:
        """Sum multiplicities over all but one key coordinate."""
        return RadiusProfile.of(((key[pos], m) for key, m in self.entries),
                                self.dim, deriv)


def radii_from_polygon(p: TwistedPoly) -> RadiusProfile:
    """Clipped radius multiset of K<T>/(P) from the Newton polygon of P."""
    if not p.is_zero() and p.degree == 0:
        raise ZeroDegree("radii need an operator of positive degree")
    poly = newton_polygon(p)  # validates monic / nonzero
    fld = p.domain.field
    lv_omega = fld.lv_omega
    lv_dsp = fld.lv_dsp(p.deriv)
    lv_rk = fld.lv_rK(p.deriv)
    pairs = [(lv_rk, poly.at_zero)]
    pairs += ((lv_omega - s if s < lv_dsp else lv_rk, length)
              for s, length in poly.slopes)
    return RadiusProfile.of(pairs, p.degree, p.deriv,
                            any(s == lv_dsp for s, _ in poly.slopes))


def profile(m: DiffModule, j: int, check: bool = True) -> RadiusProfile:
    """Radius profile of a module: cyclic vector, then polygon radii.

    With ``check`` the profile is checked (``check_profile``) against the
    brute-force spectral estimate of order CHECK_KMAX.
    """
    if m.dim == 0:
        return RadiusProfile.of((), 0, j)
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

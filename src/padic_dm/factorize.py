"""Slope factorization and radius decompositions.

A monic twisted polynomial whose clipped radius multiset splits across a
Newton-polygon gap factors as P = Q_high * Q_low, where the right factor
carries the radii below the break (in log scale) and the left factor the
rest.  The factorization is a contraction: initialize the right factor
from the polygon truncation of the coefficients, then repeat

    P = D * Q + R,    Q <- Q + i(d0^-1) * R,

with d0 the constant coefficient of D, which dominates D in the weighted
norm at the break; the residual's weighted valuation must rise every step.
A mirrored iteration (left division, correction multiplied by the inverse
constant coefficient of the right cofactor from the right) produces the
factorization with the low radii on the left, which is what exhibits the
low-radius part as a submodule.

``decompose`` combines the two: a chain of right splits yields one pure
factor per distinct clipped radius and the increasing filtration by
high-radius submodules; left splits yield the decreasing filtration by
low-radius submodules; components are the intersections.  All factor
arithmetic runs over truncated scalars with explicit error tracking, and
every returned decomposition carries certificates (dimension count,
purity, profile conservation, invertibility of the stacked embeddings)
that are re-checked rather than trusted from the iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from .errors import (CertificateFailure, IterationBudget, NoGap, NotExpandable,
                     NotMonic, PrecisionLoss, StabilityFailure)
from .logval import LogVal
from . import linalg as la
from .diffmod import (DiffModule, cyclic_presentations, from_operator,
                      spectral_radius_bruteforce)
from .precision import ApproxDomain, PrecisionCtx, domain_of
from .radii import MultiRadiusProfile, profile, radii_from_polygon
from .twisted import (PiNormParams, TwistedPoly, divmod_left, divmod_right,
                      mul, pi_norm)


# -- split bookkeeping -----------------------------------------------------


def _split_groups(p: TwistedPoly, lv_break: LogVal):
    """Partition the clipped radii of P across lv_break; NoGap if trivial."""
    prof = radii_from_polygon(p)
    low = {lv: m for lv, m in prof.entries if lv < lv_break}
    high = {lv: m for lv, m in prof.entries if lv >= lv_break}
    if not low or not high:
        raise NoGap(f"no radius split across lv {lv_break}")
    d_low = sum(low.values())
    lv_t = (max(low) + min(high)) / 2
    return d_low, lv_t


def _working_domain(p: TwistedPoly, ctx: PrecisionCtx) -> ApproxDomain:
    span = 0
    for c in p.coeffs:
        v = c.val()
        if not v.is_infinite and v.value < 0:
            span = max(span, math.ceil(-v.value))
    err = ctx.working_err(extra=3 * span)
    return ApproxDomain(p.domain.field, ctx, err)


def _init_low_factor(p: TwistedPoly, d_low: int) -> TwistedPoly:
    """Monic polygon truncation: the low d_low+1 coefficients over q_{d_low}."""
    qd = p.coeff(d_low)
    if qd.is_zero():
        raise PrecisionLoss("polygon vertex coefficient vanished at precision")
    inv = qd.inverse()
    return TwistedPoly(p.domain, p.deriv,
                       [inv * p.coeff(i) for i in range(d_low)] + [p.domain.one()])


def _check_factor_errs(ctx: PrecisionCtx, *polys: TwistedPoly):
    for q in polys:
        for c in q.coeffs:
            if c.err_lv < ctx.N:
                raise PrecisionLoss("factor coefficient lost target precision")


def _stale_inverse(c, zinv, need: LogVal):
    """Refresh an approximate inverse of a slowly drifting value.

    Newton steps z(2 - cz) refine the previous inverse; a fresh inversion
    only happens when the drift is too large for two steps.  ``need`` is
    the quality the correction actually requires: the relative error of
    the inverse multiplies an already small residual.
    """
    if zinv is not None:
        for _ in range(2):
            zinv = zinv * (2 - c * zinv)
            gap = c * zinv - 1
            if gap.is_zero() or gap.val() >= need:
                return zinv
    return c.inverse()


def _hensel(p: TwistedPoly, d_low: int, lv_t: LogVal, ctx: PrecisionCtx,
            right: bool):
    """Contraction onto the monic factor Q of degree d_low.

    Right: P = D*Q + R, Q <- Q + i(d0^-1) * R.  Left: P = Q*E + S,
    Q <- Q + S * e0^-1.  Returns (cofactor, Q, res_lv).
    """
    divide = divmod_right if right else divmod_left
    params = PiNormParams(lv_t)
    target = LogVal(ctx.N)
    q = _init_low_factor(p, d_low)
    prev = None
    zinv = None
    need = LogVal(math.ceil(ctx.N) + 4)
    for step in range(ctx.max_iter + 1):
        cof, r = divide(p, q)
        res = pi_norm(r, params)
        if res >= target:
            _check_factor_errs(ctx, cof, q)
            return cof, q, res
        if step == ctx.max_iter:
            raise IterationBudget(
                f"residual lv {res} below target {ctx.N} after {step} steps")
        if prev is not None and not res > prev:
            raise IterationBudget(f"residual stalled at lv {res}")
        prev = res
        c0 = cof.coeff(0)
        if c0.is_zero():
            raise PrecisionLoss("cofactor constant term vanished at precision")
        zinv = _stale_inverse(c0, zinv, need)
        if right:
            q = q + r.scale_left(zinv)
        else:
            q = q + mul(r, TwistedPoly.constant(p.domain, p.deriv, zinv))


def _hensel_right(p: TwistedPoly, d_low: int, lv_t: LogVal, ctx: PrecisionCtx):
    """P = D*Q + R iteration on the right factor.  Returns (D, Q, res_lv)."""
    return _hensel(p, d_low, lv_t, ctx, right=True)


def _hensel_left(p: TwistedPoly, d_low: int, lv_t: LogVal, ctx: PrecisionCtx):
    """P = Q*E + S iteration on the left factor.  Returns (E, Q, res_lv)."""
    return _hensel(p, d_low, lv_t, ctx, right=False)


def slope_factorize(p: TwistedPoly, lv_break: LogVal,
                    ctx: PrecisionCtx) -> tuple[TwistedPoly, TwistedPoly]:
    """Split P across a radius gap: P = Q_high * Q_low to residual >= N.

    Q_low (the right factor) carries the radii with lv < lv_break, Q_high
    those with lv >= lv_break.  Factors are monic over truncated scalars.
    """
    if not p.is_monic():
        raise NotMonic("slope factorization needs a monic operator")
    d_low, lv_t = _split_groups(p, lv_break)
    d, q, _res = _hensel_right(reduce_operator(p, ctx), d_low, lv_t, ctx)
    return d, q


@dataclass(frozen=True)
class SlopeFactorization:
    """Chain of pure monic factors, one per distinct clipped radius.

    ``factors[i]`` is pure of ``lvs[i]`` (descending); their product
    reconstructs the input to weighted residual >= the recorded values.
    Factor degrees sum to the input degree.  ``tails[i]`` is the right
    cofactor after i+1 splits (input ~ F_1 * ... * F_{i+1} * tails[i]),
    kept so each split can be re-verified independently.
    """

    factors: tuple
    lvs: tuple
    residual_lv: tuple
    tails: tuple = ()


def reduce_operator(p: TwistedPoly, ctx: PrecisionCtx) -> TwistedPoly:
    """Image of an operator in the working approximation ring of ctx.

    Approximate coefficients are kept as they are; only the domain, and
    with it the error target of new zeros, moves to the working one.
    """
    return p.map_domain(_working_domain(p, ctx))


def factor_by_radii(p: TwistedPoly, ctx: PrecisionCtx) -> SlopeFactorization:
    """Right-split chain: P ~ F_1 * F_2 * ... * F_k, descending radii lv."""
    lvs = sorted(radii_from_polygon(p).as_dict(), reverse=True)
    return _right_chain(reduce_operator(p, ctx), lvs, ctx)


def _right_chain(p: TwistedPoly, lvs: list,
                 ctx: PrecisionCtx) -> SlopeFactorization:
    """Pure factors for the descending lvs, split off on the left in turn.

    The tails (the right cofactor left after each split) span the
    increasing filtration by high-radius submodules.
    """
    factors, residuals, tails = [], [], []
    rest = p
    for lv in lvs[:-1]:
        d_low, lv_t = _split_groups(rest, lv)
        d, rest, res = _hensel_right(rest, d_low, lv_t, ctx)
        factors.append(d)
        residuals.append(res)
        tails.append(rest)
    factors.append(rest)
    return SlopeFactorization(tuple(factors), tuple(lvs), tuple(residuals),
                              tuple(tails))


# -- decompositions ------------------------------------------------------------


@dataclass(frozen=True)
class Component:
    """One direct summand: its radius key, a pure presentation, and the
    basis of its image inside the ambient module (columns, ambient
    coordinates)."""

    key: object            # LogVal, or tuple of LogVal for multi keys
    module: DiffModule
    embedding: la.Matrix
    operator: TwistedPoly | None
    exact: bool

    @property
    def dim(self) -> int:
        return self.module.dim


@dataclass(frozen=True)
class Certificate:
    dims_ok: bool
    purity_ok: bool
    profile_ok: bool
    direct_sum_ok: bool
    residuals: tuple
    stability_ok: bool = True
    marginals_ok: bool = True

    @property
    def ok(self) -> bool:
        return (self.dims_ok and self.purity_ok and self.profile_ok
                and self.direct_sum_ok and self.stability_ok and self.marginals_ok)

    def to_jsonable(self) -> dict:
        return {
            "dims_ok": self.dims_ok,
            "purity_ok": self.purity_ok,
            "profile_ok": self.profile_ok,
            "direct_sum_ok": self.direct_sum_ok,
            "stability_ok": self.stability_ok,
            "marginals_ok": self.marginals_ok,
            "residual_lv": [str(r) for r in self.residuals],
            "ok": self.ok,
        }


@dataclass(frozen=True)
class Decomposition:
    components: tuple
    dim: int
    certificate: Certificate

    def keys(self) -> list:
        return [c.key for c in self.components]

    def to_jsonable(self, field=None, display_err: int | None = None) -> dict:
        comps = []
        for c in self.components:
            key = ([str(x) for x in c.key] if isinstance(c.key, tuple)
                   else str(c.key))
            entry = {"key": key, "dim": c.dim, "exact": c.exact}
            if c.operator is not None:
                op = c.operator
                if display_err is not None and not op.domain.is_exact:
                    op = TwistedPoly(op.domain, op.deriv,
                                     [q.truncate_err(display_err)
                                      for q in op.coeffs])
                entry["operator"] = str(op.lift_exact())
            comps.append(entry)
        return {
            "components": comps,
            "dim": self.dim,
            "certificate": self.certificate.to_jsonable(),
        }


def _span_columns(poly_tail: TwistedPoly, n: int) -> list:
    """Columns spanning K<T>*tail/(P): coefficients of T^a * tail, a < n - deg."""
    cols = []
    cur = poly_tail
    for _ in range(n - poly_tail.degree):
        cols.append([cur.coeff(i) for i in range(n)])
        cur = cur.t_shift()
    return cols


def _pure_single(m: DiffModule, lv: LogVal, p: TwistedPoly) -> Decomposition:
    dom = m.domain
    comp = Component(lv, m, la.identity(dom, m.dim), p, dom.is_exact)
    cert = Certificate(True, True, True, True, ())
    return Decomposition((comp,), m.dim, cert)


def decompose(m: DiffModule, j: int, ctx: PrecisionCtx) -> Decomposition:
    """Radius decomposition of M with respect to derivation j.

    Every distinct clipped radius contributes one component, presented by
    the companion matrix of its pure factor and embedded into M's
    coordinates.  Raises CertificateFailure when any a-posteriori check
    fails; cyclic-vector candidates are retried on expandability or
    precision failures.
    """
    if m.dim == 0:
        return Decomposition((), 0, Certificate(True, True, True, True, ()))
    last_exc = None
    for p, cbasis in islice(cyclic_presentations(m, j), 6):
        try:
            return _decompose_from_cyclic(m, j, ctx, p, cbasis)
        except (NotExpandable, PrecisionLoss, IterationBudget,
                CertificateFailure) as exc:
            last_exc = exc
    raise last_exc


def _decompose_from_cyclic(m: DiffModule, j: int, ctx: PrecisionCtx,
                           p: TwistedPoly, cbasis: la.Matrix) -> Decomposition:
    prof = radii_from_polygon(p)
    lvs = sorted(prof.as_dict(), reverse=True)
    if len(lvs) == 1:
        return _pure_single(m, lvs[0], p)
    mults = [prof.multiplicity(lv) for lv in lvs]
    n, k = m.dim, len(lvs)

    pa = reduce_operator(p, ctx)
    adom = pa.domain
    chain = _right_chain(pa, lvs, ctx)
    residuals = list(chain.residual_lv)

    # decreasing filtration: left splits at every break (low radii)
    lows = []
    for i in range(1, k):
        d_low, lv_t = _split_groups(pa, lvs[i - 1])
        e, _q, res = _hensel_left(pa, d_low, lv_t, ctx)
        residuals.append(res)
        lows.append(e)  # B_i = span of T^b * e, b < d_low

    # rank and intersection decisions happen in the target-precision
    # quotient, where quantities below lv N are genuine zeros and the
    # leakage band above the degree watermark is discarded
    errn = math.ceil(ctx.N)
    mark = _watermark(ctx, n)
    spans = []
    for c in range(k):
        if c == 0:
            cols = _span_columns(chain.tails[0], n)
        elif c == k - 1:
            cols = _span_columns(lows[k - 2], n)
        else:
            a_cols = _round_cols(_span_columns(chain.tails[c], n), errn, mark)
            b_cols = _round_cols(_span_columns(lows[c - 1], n), errn, mark)
            cols = la.intersect_spans(a_cols, b_cols, adom)
        cols = _round_cols(cols, errn, mark)
        if len(cols) != mults[c]:
            raise CertificateFailure(
                f"component for lv {lvs[c]} has rank {len(cols)}, "
                f"expected {mults[c]}")
        spans.append(cols)

    # certificates -----------------------------------------------------
    dims_ok = sum(mults) == n
    purity_ok = True
    recomposed: dict = {}
    comps = []
    camb = [[adom.coerce(e) for e in row] for row in cbasis]
    for c in range(k):
        f = chain.factors[c]
        fprof = radii_from_polygon(f)
        if fprof.support != (lvs[c],):
            purity_ok = False
        for lv, mult in fprof.entries:
            recomposed[lv] = recomposed.get(lv, 0) + mult
        cmod = from_operator(f)
        est = spectral_radius_bruteforce(cmod, j, kmax=10)
        tol = est.spread + 1
        if abs(est.lv.value - lvs[c].value) > tol:
            purity_ok = False
        embedding = la.mat_mul(camb, la.from_columns(spans[c]))
        comps.append(Component(lvs[c], cmod, embedding, f, False))
    profile_ok = recomposed == prof.as_dict()
    stacked = la.from_columns(
        _round_cols([col for cols in spans for col in cols], errn))
    direct_sum_ok = la.is_invertible(stacked, adom)
    # each span must be a submodule of the cyclic presentation K<T>/K<T>pa
    companion = from_operator(pa)
    stability_ok = True
    for cols in spans:
        try:
            _restrict(companion, cols, adom, ctx)
        except StabilityFailure:
            stability_ok = False

    cert = Certificate(dims_ok, purity_ok, profile_ok, direct_sum_ok,
                       tuple(residuals), stability_ok)
    if not cert.ok:
        raise CertificateFailure(f"decomposition certificate failed: "
                                 f"{cert.to_jsonable()}")
    return Decomposition(tuple(comps), n, cert)


# -- multi-derivation decomposition ------------------------------------------


def _round_cols(cols: list, err: int, degree: int | None = None) -> list:
    return [[e.truncate_err(err, degree) for e in col] for col in cols]


def _watermark(ctx: PrecisionCtx, n: int) -> int:
    """Reliable degree window: below the band polluted by cap leakage."""
    mark = ctx.d - (2 * n + 10)
    if mark < 2:
        raise PrecisionLoss(
            f"degree cap d={ctx.d} too small for dimension {n}")
    return mark


def _restrict(m: DiffModule, u_cols: list, adom, ctx: PrecisionCtx) -> DiffModule:
    """Module structure induced on the span of u_cols, for every derivation.

    Containment is decided in the target-precision quotient (below the
    degree watermark); a residual that survives there raises
    StabilityFailure.
    """
    ma = m if not m.domain.is_exact else m.map_domain(adom)
    errn = math.ceil(ctx.N)
    mark = _watermark(ctx, ma.dim)
    u_cols = _round_cols(u_cols, errn, mark)
    u = la.from_columns(u_cols)
    mats = []
    for j in range(ma.field.nderiv):
        if ma.mats[j] is None:
            mats.append(None)
            continue
        w = la.from_columns([_round_cols([ma.apply_T(j, col)], errn, mark)[0]
                             for col in u_cols])
        sol = la.solve_in_span(u, w)
        if sol is None:
            raise StabilityFailure("embedding basis rank-deficient at precision")
        x, residual = sol
        # products of watermark-truncated values regenerate junk above the
        # mark; containment is judged strictly below it
        test_mark = mark - ma.dim - 4
        if any(not e.truncate_err(errn, test_mark).is_zero()
               for row in residual for e in row):
            raise StabilityFailure(
                f"component basis not stable under derivation {j} at precision")
        mats.append(x)
    return DiffModule(adom, len(u_cols), mats, _checked=True)


def multi_decompose(m: DiffModule, ctx: PrecisionCtx) -> Decomposition:
    """Joint decomposition over all derivations; keys are lv tuples.

    Decomposes with respect to the first derivation, verifies each
    component's basis is stable under the sibling derivations, restricts,
    and recurses.  Marginals of the resulting key multiset must reproduce
    the single-derivation profiles.
    """
    derivs = m.derivations
    if m.dim == 0:
        return Decomposition((), 0, Certificate(True, True, True, True, ()))
    comps, residuals = _multi_rec(m, ctx, list(derivs))
    dims_ok = sum(c.dim for c in comps) == m.dim
    keys: dict = {}
    for c in comps:
        keys[c.key] = keys.get(c.key, 0) + c.dim
    multi_prof = MultiRadiusProfile.from_dict(keys, m.dim)
    marginals_ok = True
    for pos, j in enumerate(derivs):
        single = profile(m, j, check=False)
        if multi_prof.marginal(pos, j) != single:
            marginals_ok = False
    cert = Certificate(dims_ok, True, True, True, tuple(residuals),
                       marginals_ok=marginals_ok)
    if not cert.ok:
        raise CertificateFailure("multi-decomposition certificate failed")
    return Decomposition(tuple(comps), m.dim, cert)


def _multi_rec(m: DiffModule, ctx: PrecisionCtx, derivs: list):
    j = derivs[0]
    if len(derivs) == 1:
        dec = decompose(m, j, ctx)
        comps = []
        for c in dec.components:
            comps.append(Component((c.key,), c.module, c.embedding,
                                   c.operator, c.exact))
        return comps, list(dec.certificate.residuals)

    # outer levels run at boosted precision so the restricted structure
    # still clears the caller's target after another round of solves
    boosted = PrecisionCtx(ctx.N + 12, ctx.d, ctx.max_iter)
    dec = decompose(m, j, boosted)
    residuals = list(dec.certificate.residuals)
    out = []
    for c in dec.components:
        if len(dec.components) == 1:
            sub_m = m
            u_cols = None
        else:
            u_cols = la.columns(c.embedding)
            sub_m = _restrict(m, u_cols, domain_of(u_cols[0][0]), boosted)
        sub_comps, sub_res = _multi_rec(sub_m, ctx, derivs[1:])
        residuals.extend(sub_res)
        for sc in sub_comps:
            key = (c.key,) + sc.key
            if u_cols is None:
                emb = sc.embedding
                exact = sc.exact
            else:
                emb = la.mat_mul(la.from_columns(u_cols), sc.embedding)
                exact = False
            out.append(Component(key, sc.module, emb, sc.operator, exact))
    return out, residuals

"""Slope factorization and radius decompositions.

A monic twisted polynomial whose clipped radius multiset splits across a
Newton-polygon gap factors as P = Q_high * Q_low, where the right factor
carries the radii below the break (in log scale) and the left factor the
rest.  The factorization is a contraction: initialize the right factor
from the polygon truncation of the coefficients, then repeat

    P = D * Q + R,    Q <- Q + i(z) * R,

with z an inverse of d0, the constant coefficient of D, which dominates D
in the weighted norm at the break; the residual's weighted valuation must
rise every step.  The correction needs z to match d0^-1 only to within
the gap between the radii on either side of the break, not to N, so the
iteration is a chord one: z is the inverse (a doubling Newton inverse) of
the first step's d0, and d0 is inverted afresh only after a step that
gained less than the gap (every exact-inverse step of the benchmark
corpora gained at least the gap).
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
purity, profile conservation, invertibility of the stacked embeddings,
stability of each span under the derivations and, for several
derivations, the marginals of the keys) that are re-checked rather than
trusted from the iteration.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from itertools import islice, product

from .errors import (CertificateFailure, FieldMismatch, IterationBudget, NoGap,
                     NotExpandable, NotMonic, PadicDMError, PrecisionLoss,
                     SearchExhausted, StabilityFailure)
from .logval import LogVal
from . import linalg as la
from .diffmod import (DiffModule, cyclic_data, cyclic_presentations,
                      from_operator, spectral_radius_bruteforce)
from .precision import ApproxDomain, PrecisionCtx
from .radii import (MultiRadiusProfile, RadiusProfile, check_profile,
                    profile, radii_from_polygon)
from .twisted import (TwistedPoly, divmod_left, divmod_right, mul, pi_norm,
                      weighted_norm)

# Digits kept beyond ceil(N) and 3 * span.  No margin is needed past 1:
# _hensel certifies each split by its lifting floor, and a split that
# falls short is rerun once with the shortfall added.  1 is the smallest
# guard at which no split of tier-1 or of the benchmark corpora falls short
# (at 0 both cases of test_working_precision_reaches_the_target do); over
# the 126 splits of the decompose and multi-decompose corpora (seeds 202,
# 203, 505, 506) the floor clears N by at least 3/2 at guard 1 (25/2 at
# guard 12).
DEFAULT_GUARD = 1


# -- split bookkeeping -----------------------------------------------------


def _split_groups(p: TwistedPoly, lv_break: LogVal):
    """Partition the clipped radii of P across lv_break; NoGap if trivial.
    Returns (d_low, lv_t, gap), lv_t the middle of the gap between sides.
    """
    prof = radii_from_polygon(p)
    low = {lv: m for lv, m in prof.entries if lv < lv_break}
    high = {lv: m for lv, m in prof.entries if lv >= lv_break}
    if not low or not high:
        raise NoGap(f"no radius split across lv {lv_break}")
    gap = min(high) - max(low)
    return sum(low.values()), max(low) + gap / 2, gap


def reduce_operator(p: TwistedPoly, ctx: PrecisionCtx) -> TwistedPoly:
    """Image of an operator in the working approximation ring of ctx, at
    error ceil(N) + DEFAULT_GUARD + 3 * span: the one sizing of a split.
    Approximate coefficients are kept as they are; only the domain, and
    with it the error target of new zeros, moves to the working one."""
    span = max([0] + [math.ceil(-v) for c in p.coeffs if (v := c.val()) < 0])
    # 3 * span spares the rerun of _with_retry: at 2 * span and guard 0,
    # a degree-5 split with span 13 falls 14 digits short of its lifting
    # floor (test_short_lifting_floor_is_rerun_with_the_shortfall)
    err = ctx.target_err + DEFAULT_GUARD + 3 * span
    return p.map_domain(ApproxDomain(p.domain.field, ctx, err))


def _with_retry(p: TwistedPoly, ctx: PrecisionCtx, run):
    """``run`` on ``reduce_operator(p, ctx)``, and once more on an image
    with ``shortfall`` more digits when a split's lifting floor falls short
    of N by that many: the one rerun of a split.  When the rerun fails too,
    its error lists both runs in ``attempts``, the first shortfall first.
    Laurent errors are also capped by the window (``precision._window``),
    which more digits do not lift, so a shortfall the window causes fails
    honestly on the rerun."""
    pa = reduce_operator(p, ctx)
    try:
        return run(pa)
    except PrecisionLoss as short:
        if not short.shortfall:
            raise
        wider = replace(pa.domain, err=pa.domain.err + short.shortfall)
        try:
            return run(p.map_domain(wider))
        except PadicDMError as exc:
            exc.attempts = ((short.code, str(short)), (exc.code, str(exc)))
            raise


def _init_low_factor(p: TwistedPoly, d_low: int) -> TwistedPoly:
    """Monic polygon truncation: the low d_low+1 coefficients over q_{d_low}."""
    qd = p.coeff(d_low)
    if qd.is_zero():
        raise PrecisionLoss("polygon vertex coefficient vanished at precision")
    inv = qd.inverse()
    return TwistedPoly(p.domain, p.deriv,
                       [inv * p.coeff(i) for i in range(d_low)] + [p.domain.one()])


def _hensel(p: TwistedPoly, d_low: int, lv_t: LogVal, gap: LogVal,
            right: bool):
    """Contraction onto the monic factor Q of degree d_low.

    Right: P = D*Q + R, Q <- Q + i(z) * R.  Left: P = Q*E + S,
    Q <- Q + S * z.  Returns (cofactor, Q, res_lv).  Chord steps: z
    inverts the cofactor's constant term d0 of the first step, and the
    current d0 again after a step that gained less than the gap.  A z off
    from d0^-1 at relative lv e gains about min(gap, e) per step.  The
    factors are certified by their lifting floor too; one below N raises
    PrecisionLoss with the shortfall in digits.  N and max_iter are those
    of P's working domain.
    """
    divide = divmod_right if right else divmod_left
    ctx = p.domain.ctx
    q = _init_low_factor(p, d_low)
    prev = zinv = None
    for step in range(ctx.max_iter + 1):
        cof, r = divide(p, q)
        res = pi_norm(r, lv_t)
        if res >= ctx.N:
            # the rounding of the factors' digits moves their product by
            # lv >= floor, in the weighted norm at the break
            floor = min(_err_norm(cof, lv_t) + pi_norm(q, lv_t),
                        pi_norm(cof, lv_t) + _err_norm(q, lv_t))
            if floor < ctx.N:
                short = math.ceil(ctx.N - floor)
                raise PrecisionLoss(
                    f"lifting floor {floor} below target N = {ctx.N},"
                    f" short by {short}", shortfall=short)
            return cof, q, res
        if step == ctx.max_iter:
            raise IterationBudget(
                f"residual lv {res} below target {ctx.N} after {step} steps")
        if prev is not None and not res > prev:
            raise IterationBudget(f"residual stalled at lv {res}")
        if zinv is None or res - prev < gap:
            c0 = cof.coeff(0)
            if c0.is_zero():
                raise PrecisionLoss(
                    "cofactor constant term vanished at precision")
            zinv = c0.inverse()
        prev = res
        if right:
            q = q + r.scale_left(zinv)
        else:
            q = q + mul(r, TwistedPoly.constant(p.domain, p.deriv, zinv))


def _err_norm(f: TwistedPoly, lv_t: LogVal) -> LogVal:
    """``pi_norm`` of F's error floor: min_i lv(i!) + err_lv(F_i) - i lv_t."""
    return weighted_norm(f.domain.field, [c.err_lv for c in f.coeffs], lv_t)


def _hensel_right(p: TwistedPoly, d_low: int, lv_t: LogVal, gap: LogVal):
    """P = D*Q + R iteration on the right factor.  Returns (D, Q, res_lv)."""
    return _hensel(p, d_low, lv_t, gap, right=True)


def _hensel_left(p: TwistedPoly, d_low: int, lv_t: LogVal, gap: LogVal):
    """P = Q*E + S iteration on the left factor.  Returns (E, Q, res_lv)."""
    return _hensel(p, d_low, lv_t, gap, right=False)


def slope_factorize(p: TwistedPoly, lv_break: LogVal,
                    ctx: PrecisionCtx) -> tuple[TwistedPoly, TwistedPoly]:
    """Split P across a radius gap: P = Q_high * Q_low to residual >= N.

    Q_low (the right factor) carries the radii with lv < lv_break, Q_high
    those with lv >= lv_break.  Factors are monic over truncated scalars.
    """
    if not p.is_monic():
        raise NotMonic("slope factorization needs a monic operator")
    split = _split_groups(p, lv_break)
    return _with_retry(p, ctx, lambda pa: _hensel_right(pa, *split))[:2]


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
    tails: tuple


def factor_by_radii(p: TwistedPoly, ctx: PrecisionCtx) -> SlopeFactorization:
    """Right-split chain: P ~ F_1 * F_2 * ... * F_k, descending radii lv."""
    lvs = radii_from_polygon(p).support[::-1]
    return _with_retry(p, ctx, lambda pa: _right_chain(pa, lvs))


def _right_chain(p: TwistedPoly, lvs: tuple) -> SlopeFactorization:
    """Pure factors for the descending lvs, split off on the left in turn.

    The tails (the right cofactor left after each split) span the
    increasing filtration by high-radius submodules.
    """
    factors, residuals, tails = [], [], []
    rest = p
    for lv in lvs[:-1]:
        d, rest, res = _hensel_right(rest, *_split_groups(rest, lv))
        factors.append(d)
        residuals.append(res)
        tails.append(rest)
    factors.append(rest)
    return SlopeFactorization(tuple(factors), lvs, tuple(residuals),
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
    operator: TwistedPoly

    @property
    def dim(self) -> int:
        return self.module.dim

    @property
    def exact(self) -> bool:
        return self.module.domain.is_exact


@dataclass(frozen=True)
class Certificate:
    dims_ok: bool = True
    purity_ok: bool = True
    profile_ok: bool = True
    direct_sum_ok: bool = True
    residual_lv: tuple = ()
    stability_ok: bool = True
    marginals_ok: bool = True

    @property
    def ok(self) -> bool:
        return (self.dims_ok and self.purity_ok and self.profile_ok
                and self.direct_sum_ok and self.stability_ok and self.marginals_ok)


@dataclass(frozen=True)
class Decomposition:
    """Components, their certificate, and the profile certified: that of
    the split cyclic operator, or of the keys over several derivations."""

    components: tuple
    certificate: Certificate
    profile: RadiusProfile | MultiRadiusProfile

    @property
    def dim(self) -> int:
        return self.profile.dim


def _span_columns(poly_tail: TwistedPoly, n: int) -> list:
    """Columns spanning K<T>*tail/(P): coefficients of T^a * tail, a < n - deg."""
    cols = []
    cur = poly_tail
    for _ in range(n - poly_tail.degree):
        cols.append([cur.coeff(i) for i in range(n)])
        cur = cur.t_shift()
    return cols


def _watermark(d: int, n: int) -> int:
    """Top degree of the certificate quotient of an n-dimensional module at
    degree cap d: derivatives leave the cap's truncation junk above it."""
    return d - (2 * n + 10)


def _quotient(cols: list, n: int, band: bool = False) -> list:
    """Columns (or rows) over an n-dimensional module, in the certificate
    quotient of both decompositions: each entry cut to its ctx's target
    error and ``_watermark``, which each entry keeps as its degree cap, so
    no sum or product of them makes digits above it.  ``band``:
    containment is judged n + 4 degrees lower still, as the derivative in
    ``apply_T`` leaks the cut's truncation one degree down.
    ``_split_decomposition`` checks the watermark >= 2."""
    below = n + 4 if band else 0
    return [[e.truncate_err(e.ctx.target_err, _watermark(e.ctx.d, n) - below)
             for e in col] for col in cols]


def _quotient_domain(cols: list) -> ApproxDomain:
    """Domain of the quotient's linear algebra: truncated scalars at
    ceil(N), read from the ctx that the columns' entries carry."""
    ctx = cols[0][0].ctx
    return ApproxDomain(cols[0][0].field, ctx, ctx.target_err)


def _intersect(spans: list, n: int) -> list:
    """Basis, in the quotient, of the meet of the spans short of all of M,
    taken in turn: a meet of the full dimension of the basis so far keeps
    that basis.  The meets run in ``_quotient_domain``."""
    spans = [_quotient(s, n) for s in spans if len(s) < n]
    cols, adom = spans[0], _quotient_domain(spans[0])
    for span in spans[1:]:
        # scaled like its second argument, the basis so far
        both = _quotient(la.intersect_spans(span, cols, adom), n)
        if len(both) < len(cols):
            cols = both
    return cols


def _restrict(m: DiffModule, u_cols: list) -> DiffModule:
    """Module structure induced on the span of u_cols, for every derivation,
    over ``_quotient_domain``.

    u_cols lie in the certificate quotient (``_quotient``), as
    ``_intersect``'s bases do; their images are taken there too, and a
    residual that survives in its containment band raises StabilityFailure.
    """
    adom = _quotient_domain(u_cols)
    ma = m if not m.domain.is_exact else m.map_domain(adom)
    u = la.from_columns(u_cols)

    def induced(j, _g):
        w = la.from_columns(_quotient(
            [ma.apply_T(j, col) for col in u_cols], ma.dim))
        sol = la.solve_in_span(u, w)
        if sol is None:
            raise StabilityFailure("embedding basis rank-deficient at precision")
        x, residual = sol
        rest = _quotient(residual, ma.dim, band=True)
        if any(not e.is_zero() for row in rest for e in row):
            raise StabilityFailure(
                f"component basis not stable under derivation {j} at precision")
        return x

    return ma.mapped(adom, len(u_cols), induced)


def decompose(m: DiffModule, j: int, ctx: PrecisionCtx) -> Decomposition:
    """Radius decomposition of M with respect to derivation j.

    Every distinct clipped radius contributes one component, presented by
    the companion matrix of its pure factor and embedded into M's
    coordinates.  Raises CertificateFailure when any a-posteriori check
    fails; cyclic-vector candidates are retried on expandability or
    precision failures, after one rerun of the same candidate with more
    working digits when a split's lifting floor falls short
    (``_with_retry``).  When every candidate fails, the last exception is
    raised with ``attempts`` listing the (code, message) of each failure in
    turn, both runs of a rerun candidate; SearchExhausted, with no
    attempts, when there is no candidate.
    FieldMismatch when M carries no matrix for derivation j (``m.mat``).
    """
    m.mat(j)
    if m.dim == 0:
        return Decomposition((), Certificate(),
                             RadiusProfile.of((), 0, j))
    failures = []
    for p, cbasis in islice(cyclic_presentations(m, j), 6):
        try:
            return _decompose_from_cyclic(m, j, ctx, p, cbasis)
        except (NotExpandable, PrecisionLoss, IterationBudget,
                CertificateFailure) as exc:
            failures.append(exc)
    if not failures:
        raise SearchExhausted(
            "no cyclic vector found within the candidate budget")
    exc = failures[-1]
    exc.attempts = tuple(a for e in failures
                         for a in e.attempts or ((e.code, str(e)),))
    raise exc


def _decompose_from_cyclic(m: DiffModule, j: int, ctx: PrecisionCtx,
                           p: TwistedPoly, cbasis: la.Matrix) -> Decomposition:
    """One candidate; a single radius is all of M, before any reduction."""
    prof = radii_from_polygon(p)
    if len(prof.entries) == 1:
        comp = Component(prof.support[0], m, la.identity(m.domain, m.dim), p)
        return Decomposition((comp,), Certificate(), prof)
    return _with_retry(p, ctx, lambda pa: _split_decomposition(
        m, j, pa, cbasis, prof))


def _split_decomposition(m: DiffModule, j: int, pa: TwistedPoly,
                         cbasis: la.Matrix,
                         prof: RadiusProfile) -> Decomposition:
    """One certified component per radius of prof, split from pa at the
    precision of its domain; the degree cap is checked before any split."""
    lvs = prof.support[::-1]
    mults = [mult for _lv, mult in reversed(prof.entries)]
    n, k = m.dim, len(lvs)
    d = pa.domain.ctx.d
    if _watermark(d, n) < 2:
        raise PrecisionLoss(f"degree cap d={d} too small for dimension {n}")
    chain = _right_chain(pa, lvs)
    residuals = list(chain.residual_lv)

    # decreasing filtration: left splits at every break (low radii)
    lows = [None]
    for i in range(1, k):
        e, _q, res = _hensel_left(pa, *_split_groups(pa, lvs[i - 1]))
        residuals.append(res)
        lows.append(e)
    highs = list(chain.tails) + [None]
    # component c is B_c, spanned by T^b * lows[c], meet A_c, by T^a *
    # highs[c] (None: all of M); ranks are decided in ``_quotient``
    spans = []
    for c in range(k):
        cols = _intersect([_span_columns(f, n) for f in (lows[c], highs[c])
                           if f is not None], n)
        if len(cols) != mults[c]:
            raise CertificateFailure(
                f"component for lv {lvs[c]} has rank {len(cols)}, "
                f"expected {mults[c]}")
        spans.append(cols)

    # certificates -----------------------------------------------------
    dims_ok = sum(mults) == n
    purity_ok, recomposed, comps = True, [], []
    camb = [[pa.domain.coerce(e) for e in row] for row in cbasis]
    for c in range(k):
        f = chain.factors[c]
        fprof = radii_from_polygon(f)
        if fprof.support != (lvs[c],):
            purity_ok = False
        recomposed += fprof.entries
        cmod = from_operator(f)
        try:
            check_profile(fprof, spectral_radius_bruteforce(cmod, j, kmax=10),
                          m.field)
        except CertificateFailure:
            purity_ok = False
        embedding = la.mat_mul(camb, la.from_columns(spans[c]))
        comps.append(Component(lvs[c], cmod, embedding, f))
    profile_ok = RadiusProfile.of(recomposed, n, j) == prof
    stacked = la.from_columns([col for cols in spans for col in cols])
    direct_sum_ok = la.is_invertible(stacked, pa.domain)
    # each span must be a submodule of the cyclic presentation K<T>/K<T>pa
    companion = from_operator(pa)
    stability_ok = True
    for cols in spans:
        try:
            _restrict(companion, cols)
        except StabilityFailure:
            stability_ok = False

    cert = Certificate(dims_ok, purity_ok, profile_ok, direct_sum_ok,
                       tuple(residuals), stability_ok)
    if not cert.ok:
        raise CertificateFailure(
            f"decomposition certificate failed: {asdict(cert)}")
    return Decomposition(tuple(comps), cert, prof)


# -- multi-derivation decomposition ------------------------------------------


def multi_decompose(m: DiffModule, ctx: PrecisionCtx) -> Decomposition:
    """Joint decomposition over all derivations; keys are lv tuples.

    The decomposition by tuples of radii refines each single-derivation
    one, so M is decomposed by its first derivation first, at the
    caller's precision.  When M carries two derivations and every
    component of that decomposition is a line, the lines are the joint
    components (``_line``), and the marginal of the second keys must
    reproduce M's profile for the second derivation.  Else every other
    derivation is decomposed too, the joint components are the nonzero
    intersections of one component per derivation (``_multi_rec``), and
    the marginals of the keys must reproduce each decomposition's
    profile, so the intersections exhaust each decomposition.  Every
    joint component is certified stable under every derivation
    (``_restrict``); meets and restrictions run in the certificate
    quotient, over truncated scalars at ceil(N).  FieldMismatch when M
    carries no derivation.
    """
    if not m.derivations:
        raise FieldMismatch("module carries no derivation to decompose by")
    first, *rest = m.derivations
    decs = [decompose(m, first, ctx)]
    lines = decs[0].components
    if len(rest) == 1 and len(lines) > 1 and all(c.dim == 1 for c in lines):
        comps = [_line(m, c, rest[0]) for c in lines]
        profs = [decs[0].profile, profile(m, rest[0], check=False)]
    else:
        decs += [decompose(m, j, ctx) for j in rest]
        comps = _multi_rec(m, decs)
        profs = [d.profile for d in decs]
    multi_prof = MultiRadiusProfile.of(((c.key, c.dim) for c in comps), m.dim)
    cert = Certificate(
        sum(c.dim for c in comps) == m.dim,
        residual_lv=tuple(r for d in decs for r in d.certificate.residual_lv),
        marginals_ok=all(multi_prof.marginal(pos, prof.deriv) == prof
                         for pos, prof in enumerate(profs)))
    if not cert.ok:
        raise CertificateFailure("multi-decomposition certificate failed")
    return Decomposition(tuple(comps), cert, multi_prof)


def _line(m: DiffModule, c: Component, j: int) -> Component:
    """The joint component on a 1-dimensional component c of M's first
    derivation: c's span in the quotient, restricted as ``_multi_rec``
    restricts a meet that keeps it, and presented by derivation j, whose
    one radius is the second key once the brute-force estimate agrees with
    it (else CertificateFailure)."""
    cols = _intersect([la.columns(c.embedding)], m.dim)
    sub = _restrict(m, cols)
    op = cyclic_data(sub, j)[0]
    prof = radii_from_polygon(op)
    check_profile(prof, spectral_radius_bruteforce(sub, j, kmax=10), m.field)
    return Component((c.key, prof.max_lv()), sub, la.from_columns(cols), op)


def _multi_rec(m: DiffModule, decs: list) -> list:
    """Nonzero intersections of one component of each decomposition: the
    joint components of every module that ``multi_decompose`` does not
    take apart into lines.

    A single-component decomposition is all of M and takes no part; when
    only the last one is left, its components are kept as they are
    presented, once each is certified stable under every derivation
    (``_restrict``, else StabilityFailure).  Else an intersection keeps the
    basis so far when it has its full dimension; once the dimensions add
    up to dim M (else CertificateFailure), each is presented by its
    restriction and the last derivation.  Meets and restrictions take
    their domain, at ceil(N), from the columns (``_quotient_domain``).
    """
    *firsts, last = decs
    if all(len(d.components) == 1 for d in firsts):
        head = tuple(d.components[0].key for d in firsts)
        if firsts and len(last.components) > 1:
            for c in last.components:
                _restrict(m, _intersect([la.columns(c.embedding)], m.dim))
        return [replace(c, key=head + (c.key,)) for c in last.components]
    meets = []
    for choice in product(*(d.components for d in decs)):
        cols = _intersect([la.columns(c.embedding) for c in choice], m.dim)
        if cols:
            meets.append((tuple(c.key for c in choice), cols))
    dims = [len(cols) for _key, cols in meets]
    if sum(dims) != m.dim:
        raise CertificateFailure(
            f"intersection dimensions {dims} do not add up to {m.dim}")
    out = []
    for key, cols in meets:
        sub = _restrict(m, cols)
        out.append(Component(key, sub, la.from_columns(cols),
                             cyclic_data(sub, m.derivations[-1])[0]))
    return out

"""Command-line front end.

One job per invocation: parse a field, an operator or matrices, run the
requested pipeline and print a JSON report.  Reports are deterministic
(sorted keys, exact log-scale rationals like "5/4" as the canonical radius
encoding) apart from the timing field; decimal renderings are included for
display only and are marked non-authoritative.

This module alone owns the report schema: the library returns values, and
the ``_*_payload`` functions below alone give them a JSON form, with the
rule for the digits of a printed operator.

Exit codes: 0 when every certificate passes; a report whose checks fail
exits as a certificate failure (2), and a failure raised as an error
exits with the ``exit_code`` its class declares in ``errors.py``.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from itertools import zip_longest

from .errors import CertificateFailure, OutputError, PadicDMError, ParseError
from .diffmod import DiffModule, dual, from_operator, spectral_radius_bruteforce
from .factorize import Decomposition, decompose, multi_decompose
from .grammar import matrix_str, parse_matrix, parse_operator
from .precision import ExactDomain, PrecisionCtx
from .radii import (RadiusProfile, RationalityReport, check_profile,
                    check_rationality, profile)
from .scalarfield import FieldSpec
from .twisted import TwistedPoly

SCHEMA_VERSION = 1

# The precision of a job whose --precision leaves a key out.
DEFAULT_PRECISION = PrecisionCtx(Fraction(10))

# Cap on the target precision N.  A split's time grows about as N^2 (its
# digits grow as the working error): `decompose` on T^2 - (1/5)*T + x takes
# 0.89 s at N=200, 2.7-3.6 s at N=400, 3.8 s at N=500 (in process, d=48,
# max_iter=1000; shared 2-core host).  The joint cap below refuses all three
# (N^2 * 48 > 2^19 once N > 104), so this cap binds alone only for d <= 2.
# README, golden and test inputs use N <= 80.
MAX_N = 500

# Cap on the degree cap d.  Bivariate Gauss digits fill up to (d+1)^2 / 2
# monomials: `multi_decompose` on variant 3 of the `multi-decompose`
# benchmark corpus (seed 505) takes 0.16 s at d=28, 1.1 s at d=56 and
# 6.5 s at d=112 (N=10, one process, shared 2-core host).  Inputs use
# d <= 64.
MAX_D = 128

# Cap on max_iter.  A split stops at its target or at its first step that
# gains nothing, so the cap only bounds slow contractions: a gap of 1/2
# needs 2N steps, 1000 at N = MAX_N.  Inputs use max_iter <= 100.
MAX_ITER = 1000

# Joint cap on N^2 * d^k for a field in k variables: precisions inside
# each cap above can still run for minutes.  One variable costs about
# N^2 * d: `decompose` on T^12 - (1/5)*T + x takes 1.6 s at N=100,d=48,
# 20 s at N=200,d=128, over 70 s at N=500,d=128 and 2.0-2.7 s at this cap.
# `multi-decompose` on a shear conjugate of the README module takes 1.6 s
# at N=10,d=64 (the default d), 1.7 s at N=10,d=72 (this cap), 12.2 s at
# N=10,d=128 and 2.0 s at N=16,d=64, which this cap refuses (in process,
# shared 2-core host).  Inputs reach 80^2 * 48.
MAX_PRECISION_WORK = 2 ** 19

# Cap on the module dimension (the --op degree, the size of each --mat).
# The exact cyclic-vector solve and radius oracle grow steeply with it:
# `radii` on a dense random module (Gauss p=5, entries 0, 1, 2, x, 1/5,
# x/5, drawn by random.Random(0)) takes 0.26 s at dimension 8, 0.46 s at
# 10, 1.3 s at 12, 4.0 s at 14 and 11.8 s at 16 (one process, Python 3.11
# on a shared 2-core host); the fraction-free Krylov solve is half of it
# at 12 and 70% at 14, the oracle most of the rest.  Inputs have
# dimension <= 8.
MAX_DIM = 12


@dataclass
class JobSpec:
    field: FieldSpec
    command: str
    op_text: str | None
    mat_texts: list
    deriv: int
    precision: PrecisionCtx
    out: str | None


def _read_options(pairs, parsers: dict, what: str, repeatable=()) -> dict:
    """Parse (key, text) pairs into {key: value}, one parser per key; a
    text of None is a missing value, and a repeatable key gets a list."""
    opts = {}
    for key, text in pairs:
        if key not in parsers:
            raise ParseError(f"unknown {what} {key!r}")
        if text is None:
            raise ParseError(f"{what} {key} needs a value")
        if key in opts and key not in repeatable:
            raise ParseError(f"{what} {key} given twice")
        value = parsers[key](text)
        opts[key] = [*opts.get(key, []), value] if key in repeatable else value
    return opts


def _key_values(parts):
    """(key, value) of each ``key=value`` part, value None without ``=``."""
    for part in parts:
        key, eq, value = part.partition("=")
        yield key, value if eq else None


# The gauss field options and the --precision keys, with their parsers.
GAUSS_OPTIONS = {"p": int, "vars": lambda text: tuple(text.split(","))}
PRECISION_OPTIONS = {"N": Fraction, "d": int, "max_iter": int}


def _parse_field(text: str) -> FieldSpec:
    kind, *parts = text.split(":")
    try:
        if kind == "gauss":
            opts = _read_options(_key_values(parts), GAUSS_OPTIONS,
                                 "field option")
            if "p" not in opts:
                raise ParseError("gauss field needs p=<prime>")
            field = FieldSpec.gauss(opts["p"], opts.get("vars", ("x",)))
        elif kind == "laurent" and len(parts) <= 1:
            field = FieldSpec.laurent(*parts)
        else:
            raise ParseError(f"unknown field {text!r}")
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if "T" in field.variables:
        raise ParseError("variable name T is reserved for the operator symbol")
    return field


def _parse_precision(text: str) -> PrecisionCtx:
    parts = filter(None, (part.strip() for part in text.split(",")))
    try:
        opts = _read_options(_key_values(parts), PRECISION_OPTIONS,
                             "precision option")
        for key, cap in (("N", MAX_N), ("d", MAX_D), ("max_iter", MAX_ITER)):
            if opts.get(key, 0) > cap:
                raise ParseError(f"precision option {key} above {cap}")
        return replace(DEFAULT_PRECISION, **opts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(str(exc)) from exc


# The argv flags, each with the parser of its value; only --mat repeats.
FLAGS = {"--field": _parse_field, "--cmd": str, "--op": str, "--mat": str,
         "--deriv": str, "--precision": _parse_precision, "--out": str}


def parse_job(argv: list) -> JobSpec:
    opts = _read_options(zip_longest(argv[::2], argv[1::2]), FLAGS, "flag",
                         repeatable={"--mat"})
    field = opts.get("--field")
    command = opts.get("--cmd")
    op_text = opts.get("--op")
    mat_texts = opts.get("--mat", [])
    if field is None:
        raise ParseError("missing --field")
    if command not in COMMANDS:
        raise ParseError(f"--cmd must be one of {', '.join(COMMANDS)}")
    if op_text is None and not mat_texts:
        raise ParseError("one of --op or --mat is required")
    if op_text is not None and mat_texts:
        raise ParseError("--op and --mat are mutually exclusive")
    if mat_texts and len(mat_texts) not in (1, field.nderiv):
        raise ParseError("need one --mat per derivation")
    if command == "multi-decompose" and op_text is None \
            and len(mat_texts) != field.nderiv:
        raise ParseError("multi-decompose needs one --mat per derivation")
    precision = opts.get("--precision", DEFAULT_PRECISION)
    if precision.N ** 2 * precision.d ** field.nderiv > MAX_PRECISION_WORK:
        raise ParseError(f"precision N^2 * d^{field.nderiv} above "
                         f"{MAX_PRECISION_WORK}")
    deriv = 0
    deriv_name = opts.get("--deriv")
    if deriv_name is not None:
        if deriv_name not in field.variables:
            raise ParseError(f"unknown derivation {deriv_name!r}")
        deriv = field.variables.index(deriv_name)
    return JobSpec(field, command, op_text, mat_texts, deriv, precision,
                   opts.get("--out"))


def _build_module(job: JobSpec) -> DiffModule:
    field = job.field
    if job.op_text is not None:
        op = parse_operator(job.op_text, field, job.deriv)
        if op.degree > MAX_DIM:
            raise ParseError(f"operator degree above {MAX_DIM}")
        return from_operator(op)
    if any(t.count(";") + 1 > MAX_DIM for t in job.mat_texts):
        raise ParseError(f"matrix size above {MAX_DIM}")
    rows = [parse_matrix(t, field) for t in job.mat_texts]
    dim = len(rows[0])
    if any(len(g) != dim for g in rows):
        raise ParseError("--mat matrices differ in size")
    mats = rows
    if len(rows) < field.nderiv:
        mats = [None] * field.nderiv
        mats[job.deriv] = rows[0]
    return DiffModule(ExactDomain(field), dim, mats)


def _profile_payload(prof: RadiusProfile, field) -> dict:
    payload = {
        "entries": [{"lv": str(lv), "mult": m,
                     "lv_decimal_display": float(lv)}
                    for lv, m in prof.entries],
        "dim": prof.dim, "derivation": field.variables[prof.deriv],
        "note": "lv strings are authoritative; decimals are display only"}
    if prof.boundary_clipped:
        # some root norm equals the derivation norm exactly; its clip
        # to the maximal radius is flagged per the visibility rule
        payload["boundary_clipped"] = True
    return payload


def _rationality_payload(rep: RationalityReport) -> dict:
    return {"entries": [{"lv": str(lv), "mult": m, "status": s}
                        for lv, m, s in rep.entries],
            "ok": rep.ok, "advisory_ok": rep.advisory_ok}


def _decomposition_payload(dec: Decomposition) -> dict:
    """Approximate operators print their digits below ceil(N)."""
    comps = []
    for c in dec.components:
        key = ([str(x) for x in c.key] if isinstance(c.key, tuple)
               else str(c.key))
        op = c.operator
        if not op.domain.is_exact:
            op = TwistedPoly(op.domain, op.deriv, [
                q.truncate_err(op.domain.ctx.target_err) for q in op.coeffs])
        comps.append({"key": key, "dim": c.dim, "exact": c.exact,
                      "operator": str(op.lift_exact())})
    cert = dec.certificate
    return {"components": comps, "dim": dec.dim,
            "certificate": {**asdict(cert), "ok": cert.ok,
                            "residual_lv": [str(r) for r in cert.residual_lv]}}


def run(job: JobSpec) -> tuple[dict, int]:
    """Execute a job; returns (report, exit_code)."""
    field = job.field
    report = {
        "schema": SCHEMA_VERSION,
        "command": job.command,
        "field": {"kind": field.kind, "p": field.p,
                  "vars": list(field.variables)},
        "inputs": {"op": job.op_text, "mats": job.mat_texts,
                   "derivation": field.variables[job.deriv]},
        "precision": {"N": str(job.precision.N), "d": job.precision.d,
                      "max_iter": job.precision.max_iter},
    }
    t0 = time.monotonic()
    try:
        result, ok = COMMANDS[job.command](job, _build_module(job))
        report["result"] = result
        report["ok"] = ok
        code = 0 if ok else CertificateFailure.exit_code
    except PadicDMError as exc:
        report["ok"] = False
        report["error"] = _error_payload(exc)
        code = exc.exit_code
    report["timing_ms"] = int(1000 * (time.monotonic() - t0))
    return report, code


def _checked_profile(m: DiffModule, job: JobSpec, prof: RadiusProfile,
                     kmax: int) -> tuple[dict, bool]:
    """Report prof, the oracle estimate of order kmax that it is checked
    against, and its rationality; the flag is the rationality verdict."""
    field = job.field
    est = spectral_radius_bruteforce(m, job.deriv, kmax=kmax)
    check_profile(prof, est, field)
    rep = check_rationality(prof, field)
    return {
        "profile": _profile_payload(prof, field),
        "spectral_estimate": {"lv": str(est.lv), "spread": str(est.spread),
                              "window": list(est.window)},
        "rationality": _rationality_payload(rep),
    }, rep.ok


def _run_radii(job: JobSpec, m: DiffModule) -> tuple[dict, bool]:
    return _checked_profile(m, job, profile(m, job.deriv, check=False), 24)


def _run_decompose(job: JobSpec, m: DiffModule) -> tuple[dict, bool]:
    field = job.field
    dec = decompose(m, job.deriv, job.precision)
    rep = check_rationality(dec.profile, field)
    return {
        "profile": _profile_payload(dec.profile, field),
        "decomposition": _decomposition_payload(dec),
        "rationality": _rationality_payload(rep),
    }, dec.certificate.ok and rep.ok


def _run_multi_decompose(job: JobSpec, m: DiffModule) -> tuple[dict, bool]:
    field = job.field
    dec = multi_decompose(m, job.precision)
    rationality = {}
    for pos, j in enumerate(m.derivations):
        rep = check_rationality(dec.profile.marginal(pos, j), field)
        rationality[field.variables[j]] = _rationality_payload(rep)
    result = {"decomposition": _decomposition_payload(dec),
              "rationality": rationality}
    return result, dec.certificate.ok


def _run_dual(job: JobSpec, m: DiffModule) -> tuple[dict, bool]:
    dm = dual(m)
    result = {"dual_mats": [matrix_str(g) if g is not None else None
                            for g in dm.mats]}
    prof = profile(m, job.deriv, check=False)
    dprof = profile(dm, job.deriv, check=False)
    result["profile"] = _profile_payload(prof, job.field)
    result["dual_profile"] = _profile_payload(dprof, job.field)
    result["profiles_equal"] = prof == dprof
    return result, bool(result["profiles_equal"])


def _run_verify(job: JobSpec, m: DiffModule) -> tuple[dict, bool]:
    """Full pipeline: decomposition, then its profile's oracle check,
    rationality and dual; a split decomposition is reported too."""
    dec = decompose(m, job.deriv, job.precision)
    result, ok = _checked_profile(m, job, dec.profile, 30)
    if len(dec.components) > 1:
        result["decomposition"] = _decomposition_payload(dec)
    dprof = profile(dual(m), job.deriv, check=False)
    result["dual_profile_equal"] = dprof == dec.profile
    return result, ok and dec.certificate.ok and result["dual_profile_equal"]


# The --cmd values, each with the function that runs it.
COMMANDS = {"radii": _run_radii, "decompose": _run_decompose,
            "multi-decompose": _run_multi_decompose, "dual": _run_dual,
            "verify": _run_verify}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        job = parse_job(argv)
    except ParseError as exc:
        return _print_error(exc)
    report, code = run(job)
    text = json.dumps(report, sort_keys=True, indent=2)
    if job.out:
        try:
            with open(job.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _print_error(OutputError(f"cannot write --out: {exc}"))
    print(text)
    return code


def _error_payload(exc: PadicDMError) -> dict:
    """A report's ``error`` object: the code, the message and, when the
    raiser retried, every failed attempt."""
    error = {"code": exc.code, "message": str(exc)}
    if exc.attempts:
        error["attempts"] = [{"code": c, "message": msg}
                             for c, msg in exc.attempts]
    return error


def _print_error(exc: PadicDMError) -> int:
    report = {"schema": SCHEMA_VERSION, "ok": False,
              "error": _error_payload(exc)}
    print(json.dumps(report, sort_keys=True, indent=2))
    return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

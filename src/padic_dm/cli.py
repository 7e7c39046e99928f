"""Command-line front end.

One job per invocation: parse a field, an operator or matrices, run the
requested pipeline and print a JSON report.  Reports are deterministic
(sorted keys, exact log-scale rationals like "5/4" as the canonical radius
encoding) apart from the timing field; decimal renderings are included for
display only and are marked non-authoritative.

Exit codes: 0 all certificates pass, 1 parse or input error (or an
unwritable --out), 2 certificate, gap or stability failure, 3 precision or
iteration budget abort.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (CertificateFailure, IterationBudget, NoGap, OutputError,
                     PadicDMError, ParseError, PrecisionLoss,
                     StabilityFailure)
from .diffmod import DiffModule, dual, from_operator, spectral_radius_bruteforce
from .factorize import decompose, multi_decompose
from .grammar import matrix_str, parse_matrix, parse_operator
from .precision import ExactDomain, PrecisionCtx
from .radii import (RadiusProfile, check_profile, check_rationality,
                    profile)
from .scalarfield import FieldSpec

SCHEMA_VERSION = 1

# The precision of a job whose --precision leaves a key out.
DEFAULT_PRECISION = PrecisionCtx(Fraction(10))

# Cap on the target precision N.  A Hensel split gains about its radius
# gap per step on digits that grow as p^(N + 12), so its time grows about
# as N^2: `decompose` on T^2 - (1/5)*T + x (gap 1) takes 1.1 s at N=200,
# 5.5 s at N=400 and 8 s at N=500 (d=48, enough max_iter; one process).
# README, golden and test inputs use N <= 80.
MAX_N = 500

# Cap on the degree cap d.  Bivariate Gauss digits fill up to (d+1)^2 / 2
# monomials: `multi_decompose` on a conjugated criterion-8 module takes
# 0.15 s at d=28, 2.1 s at d=56 and 14 s at d=112.  Inputs use d <= 64.
MAX_D = 128

# Cap on max_iter.  A split stops at its target or at its first step that
# gains nothing, so the cap only bounds slow contractions: a gap of 1/2
# needs 2N steps, 1000 at N = MAX_N.  Inputs use max_iter <= 100.
MAX_ITER = 1000

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


def _parse_field(text: str) -> FieldSpec:
    kind, *parts = text.split(":")
    try:
        if kind == "gauss":
            p = None
            variables = ("x",)
            seen = set()
            for part in parts:
                key = part.partition("=")[0]
                if key in seen:
                    raise ParseError(f"field option {key} given twice")
                seen.add(key)
                if part.startswith("p="):
                    p = int(part[2:])
                elif part.startswith("vars="):
                    variables = tuple(part[5:].split(","))
                else:
                    raise ParseError(f"unknown field option {part!r}")
            if p is None:
                raise ParseError("gauss field needs p=<prime>")
            field = FieldSpec.gauss(p, variables)
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
    opts = {}
    try:
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            key, _, val = part.partition("=")
            if key in opts:
                raise ParseError(f"precision option {key} given twice")
            if key == "N":
                opts[key] = Fraction(val)
            elif key in ("d", "max_iter"):
                opts[key] = int(val)
            else:
                raise ParseError(f"unknown precision option {key!r}")
        for key, cap in (("N", MAX_N), ("d", MAX_D), ("max_iter", MAX_ITER)):
            if opts.get(key, 0) > cap:
                raise ParseError(f"precision option {key} above {cap}")
        return replace(DEFAULT_PRECISION, **opts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(str(exc)) from exc


def parse_job(argv: list) -> JobSpec:
    field = None
    command = None
    op_text = None
    mat_texts = []
    deriv_name = None
    precision = DEFAULT_PRECISION
    out = None
    i = 0
    seen = set()

    def need_value(flag):
        nonlocal i
        if i + 1 >= len(argv):
            raise ParseError(f"flag {flag} needs a value")
        if flag in seen:
            raise ParseError(f"flag {flag} given twice")
        if flag != "--mat":
            seen.add(flag)
        i_next = argv[i + 1]
        i += 2
        return i_next

    while i < len(argv):
        flag = argv[i]
        if flag == "--field":
            field = _parse_field(need_value(flag))
        elif flag == "--cmd":
            command = need_value(flag)
        elif flag == "--op":
            op_text = need_value(flag)
        elif flag == "--mat":
            mat_texts.append(need_value(flag))
        elif flag == "--deriv":
            deriv_name = need_value(flag)
        elif flag == "--precision":
            precision = _parse_precision(need_value(flag))
        elif flag == "--out":
            out = need_value(flag)
        else:
            raise ParseError(f"unknown flag {flag!r}")
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
    deriv = 0
    if deriv_name is not None:
        if deriv_name not in field.variables:
            raise ParseError(f"unknown derivation {deriv_name!r}")
        deriv = field.variables.index(deriv_name)
    return JobSpec(field, command, op_text, mat_texts, deriv, precision, out)


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
    payload = prof.to_jsonable(field)
    for entry in payload["entries"]:
        entry["lv_decimal_display"] = float(Fraction(entry["lv"]))
    payload["note"] = "lv strings are authoritative; decimals are display only"
    return payload


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
    code = 0
    try:
        result, ok = COMMANDS[job.command](job)
        report["result"] = result
        report["ok"] = ok
        if not ok:
            code = 2
    except PadicDMError as exc:
        report["ok"] = False
        report["error"] = {"code": exc.code, "message": str(exc)}
        if exc.attempts:
            report["error"]["attempts"] = [{"code": c, "message": msg}
                                           for c, msg in exc.attempts]
        if isinstance(exc, (IterationBudget, PrecisionLoss)):
            code = 3
        elif isinstance(exc, (CertificateFailure, NoGap, StabilityFailure)):
            code = 2
        else:
            code = 1
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
        "rationality": rep.to_jsonable(),
    }, rep.ok


def _run_radii(job: JobSpec) -> tuple[dict, bool]:
    m = _build_module(job)
    return _checked_profile(m, job, profile(m, job.deriv, check=False), 24)


def _run_decompose(job: JobSpec) -> tuple[dict, bool]:
    field = job.field
    m = _build_module(job)
    dec = decompose(m, job.deriv, job.precision)
    rep = check_rationality(dec.profile, field)
    return {
        "profile": _profile_payload(dec.profile, field),
        "decomposition": dec.to_jsonable(),
        "rationality": rep.to_jsonable(),
    }, dec.certificate.ok and rep.ok


def _run_multi_decompose(job: JobSpec) -> tuple[dict, bool]:
    field = job.field
    m = _build_module(job)
    dec = multi_decompose(m, job.precision)
    rationality = {}
    for pos, j in enumerate(m.derivations):
        rep = check_rationality(dec.profile.marginal(pos, j), field)
        rationality[field.variables[j]] = rep.to_jsonable()
    result = {"decomposition": dec.to_jsonable(),
              "rationality": rationality}
    return result, dec.certificate.ok


def _run_dual(job: JobSpec) -> tuple[dict, bool]:
    field = job.field
    m = _build_module(job)
    dm = dual(m)
    result = {"dual_mats": [matrix_str(g) if g is not None else None
                            for g in dm.mats]}
    prof = profile(m, job.deriv, check=False)
    dprof = profile(dm, job.deriv, check=False)
    result["profile"] = _profile_payload(prof, job.field)
    result["dual_profile"] = _profile_payload(dprof, job.field)
    result["profiles_equal"] = prof == dprof
    return result, bool(result["profiles_equal"])


def _run_verify(job: JobSpec) -> tuple[dict, bool]:
    """Full pipeline: decomposition, then its profile's oracle check,
    rationality and dual; a split decomposition is reported too."""
    m = _build_module(job)
    dec = decompose(m, job.deriv, job.precision)
    result, ok = _checked_profile(m, job, dec.profile, 30)
    if len(dec.components) > 1:
        result["decomposition"] = dec.to_jsonable()
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


def _print_error(exc: PadicDMError) -> int:
    report = {"schema": SCHEMA_VERSION, "ok": False,
              "error": {"code": exc.code, "message": str(exc)}}
    print(json.dumps(report, sort_keys=True, indent=2))
    return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

One job per invocation: parse a field, an operator or matrices, run the
requested pipeline and print a JSON report.  Reports are deterministic
(sorted keys, exact log-scale rationals like "5/4" as the canonical radius
encoding) apart from the timing field; decimal renderings are included for
display only and are marked non-authoritative.

Exit codes: 0 all certificates pass, 1 parse or input error (or an
unwritable --out), 2 certificate failure, 3 precision or iteration budget
abort.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import math

from .errors import (CertificateFailure, IterationBudget, NoGap, OutputError,
                     PadicDMError, ParseError, PrecisionLoss)
from .diffmod import DiffModule, dual, from_operator, spectral_radius_bruteforce
from .factorize import Decomposition, decompose, multi_decompose
from .grammar import matrix_str, parse_matrix, parse_operator
from .precision import ExactDomain, PrecisionCtx
from .radii import RadiusProfile, check_rationality, profile
from .scalarfield import FieldSpec

SCHEMA_VERSION = 1
COMMANDS = ("radii", "decompose", "multi-decompose", "dual", "verify")


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
    parts = text.split(":")
    if parts[0] == "gauss":
        p = None
        variables = ("x",)
        try:
            for part in parts[1:]:
                if part.startswith("p="):
                    p = int(part[2:])
                elif part.startswith("vars="):
                    variables = tuple(v for v in part[5:].split(",") if v)
                else:
                    raise ParseError(f"unknown field option {part!r}")
            if p is None:
                raise ParseError("gauss field needs p=<prime>")
            field = FieldSpec.gauss(p, variables)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    elif parts[0] == "laurent":
        field = FieldSpec.laurent(parts[1] if len(parts) > 1 else "z")
    else:
        raise ParseError(f"unknown field kind {parts[0]!r}")
    if "T" in field.variables:
        raise ParseError("variable name T is reserved for the operator symbol")
    return field


def _parse_precision(text: str) -> PrecisionCtx:
    n, d, max_iter = Fraction(10), 64, 100
    try:
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            key, _, val = part.partition("=")
            if key == "N":
                n = Fraction(val)
            elif key == "d":
                d = int(val)
            elif key == "max_iter":
                max_iter = int(val)
            else:
                raise ParseError(f"unknown precision option {key!r}")
        return PrecisionCtx(n, d, max_iter)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(str(exc)) from exc


def parse_job(argv: list) -> JobSpec:
    field = None
    command = None
    op_text = None
    mat_texts = []
    deriv_name = None
    precision = PrecisionCtx(Fraction(10), 64, 100)
    out = None
    i = 0

    def need_value(flag):
        nonlocal i
        if i + 1 >= len(argv):
            raise ParseError(f"flag {flag} needs a value")
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
    env_cap = os.environ.get("PADIC_DM_MAX_ITER")
    if env_cap is not None:
        try:
            precision = PrecisionCtx(precision.N, precision.d, int(env_cap))
        except ValueError as exc:
            raise ParseError(f"PADIC_DM_MAX_ITER: {exc}") from exc
    return JobSpec(field, command, op_text, mat_texts, deriv, precision, out)


def _build_module(job: JobSpec) -> DiffModule:
    field = job.field
    dom = ExactDomain(field)
    if job.op_text is not None:
        p = parse_operator(job.op_text, field, job.deriv)
        return from_operator(p)
    mats = [None] * field.nderiv
    rows = [parse_matrix(t, field) for t in job.mat_texts]
    dim = len(rows[0])
    if any(len(g) != dim for g in rows):
        raise ParseError("--mat matrices differ in size")
    if len(rows) == 1 and field.nderiv == 1:
        mats[0] = rows[0]
    elif len(rows) == field.nderiv:
        mats = rows
    else:
        mats[job.deriv] = rows[0]
    return DiffModule(dom, dim, mats)


def _profile_payload(prof: RadiusProfile, field) -> dict:
    payload = prof.to_jsonable(field)
    for entry in payload["entries"]:
        entry["lv_decimal_display"] = float(Fraction(entry["lv"]))
    payload["note"] = "lv strings are authoritative; decimals are display only"
    return payload


def _estimate_payload(est) -> dict:
    return {"lv": str(est.lv), "spread": str(est.spread),
            "window": list(est.window)}


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
        result, ok = _dispatch(job, report)
        report["result"] = result
        report["ok"] = ok
        if not ok:
            code = 2
    except PadicDMError as exc:
        report["ok"] = False
        report["error"] = {"code": exc.code, "message": str(exc)}
        if isinstance(exc, (IterationBudget, PrecisionLoss)):
            code = 3
        elif isinstance(exc, (CertificateFailure, NoGap)):
            code = 2
        else:
            code = 1
    report["timing_ms"] = int(1000 * (time.monotonic() - t0))
    return report, code


def _dispatch(job: JobSpec, report: dict) -> tuple[dict, bool]:
    field = job.field
    if job.command == "radii":
        return _run_radii(job)
    if job.command == "decompose":
        return _run_decompose(job)
    if job.command == "multi-decompose":
        m = _build_module(job)
        dec = multi_decompose(m, job.precision)
        derr = _display_err(job.precision)
        result = {"decomposition": dec.to_jsonable(field, derr)}
        result["rationality"] = _multi_rationality(dec, field, m)
        return result, dec.certificate.ok
    if job.command == "dual":
        return _run_dual(job)
    return _run_verify(job)


def _run_radii(job: JobSpec) -> tuple[dict, bool]:
    field = job.field
    m = _build_module(job)
    prof = profile(m, job.deriv)
    est = spectral_radius_bruteforce(m, job.deriv, kmax=24)
    rep = check_rationality(prof, field)
    result = {
        "profile": _profile_payload(prof, field),
        "spectral_estimate": _estimate_payload(est),
        "rationality": rep.to_jsonable(),
    }
    return result, rep.ok


def _run_decompose(job: JobSpec) -> tuple[dict, bool]:
    field = job.field
    m = _build_module(job)
    dec = decompose(m, job.deriv, job.precision)
    prof = profile(m, job.deriv, check=False)
    rep = check_rationality(prof, field)
    result = {
        "profile": _profile_payload(prof, field),
        "decomposition": dec.to_jsonable(field, _display_err(job.precision)),
        "rationality": rep.to_jsonable(),
    }
    return result, dec.certificate.ok and rep.ok


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
    """Full pipeline: profile, oracle agreement, rationality, and (when the
    profile splits) decomposition certificates."""
    field = job.field
    m = _build_module(job)
    prof = profile(m, job.deriv)  # includes the brute-force cross-check
    est = spectral_radius_bruteforce(m, job.deriv, kmax=30)
    rep = check_rationality(prof, field)
    result = {
        "profile": _profile_payload(prof, field),
        "spectral_estimate": _estimate_payload(est),
        "rationality": rep.to_jsonable(),
    }
    ok = rep.ok
    if len(prof.entries) > 1:
        dec = decompose(m, job.deriv, job.precision)
        result["decomposition"] = dec.to_jsonable(field,
                                                  _display_err(job.precision))
        ok = ok and dec.certificate.ok
    dm = dual(m)
    result["dual_profile_equal"] = profile(dm, job.deriv, check=False) == prof
    ok = ok and result["dual_profile_equal"]
    return result, ok


def _display_err(ctx: PrecisionCtx) -> int:
    return math.ceil(ctx.N)


def _multi_rationality(dec: Decomposition, field, m: DiffModule) -> dict:
    out = {}
    for pos, j in enumerate(m.derivations):
        marg: dict = {}
        for c in dec.components:
            marg[c.key[pos]] = marg.get(c.key[pos], 0) + c.dim
        prof = RadiusProfile.from_dict(marg, dec.dim, j)
        out[field.variables[j]] = check_rationality(prof, field).to_jsonable()
    return out


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

"""CLI: job parsing, report payloads, exit codes, round trips."""

import json
import re
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from padic_dm import (FieldSpec, PadicDMError, ParseError, TwistedPoly, cli,
                      diffmod, errors, factorize, grammar, radii)
from padic_dm.cli import COMMANDS, main, parse_job, run
from padic_dm.grammar import (MAX_NESTING, matrix_str, parse_matrix,
                              parse_operator, parse_scalar)

from test_factorize import overstated_meet
from test_golden_reports import JOBS


def job_args(*extra):
    return ["--field", "gauss:p=5:vars=x", "--cmd", "radii",
            "--op", "T^2 - (1/5)*T + x", *extra]


def op_args(op):
    return ["--field", "gauss:p=5:vars=x", "--cmd", "radii", "--op", op]


# The README multi-decompose module diag(1/5, 0), diag(0, 1/5) conjugated by
# the shears -2*x + y + 3 and x*y - y + 2, as the benchmark corpus builds
# its criterion-8 variants: at N=10,d=128 it decomposes in about a minute.
SHEARED_README_MATS = [
    "-2/5*x^2*y + 1/5*x*y^2 - x*y - 1/5*y^2 - 4/5*x + 9/5*y - 13/5,"
    "-2/5*x + 1/5*y - 7/5;"
    "2/5*x^3*y^2 - 1/5*x^2*y^3 + 3/5*x^2*y^2 + 2/5*x*y^3 + 8/5*x^2*y"
    " - 16/5*x*y^2 - 1/5*y^3 + 19/5*x*y + 11/5*y^2 + 8/5*x - 26/5*y + 26/5,"
    "2/5*x^2*y - 1/5*x*y^2 + x*y + 1/5*y^2 + 4/5*x - 9/5*y + 14/5",
    "2/5*x^2*y - 1/5*x*y^2 + 1/5*y^2 + 4/5*x - 4/5*y + 4/5,"
    "2/5*x - 1/5*y + 2/5;"
    "-2/5*x^3*y^2 + 1/5*x^2*y^3 + 2/5*x^2*y^2 - 2/5*x*y^3 - 8/5*x^2*y"
    " + 6/5*x*y^2 + 1/5*y^3 + 1/5*x*y - 6/5*y^2 - 3/5*x + 11/5*y - 11/5,"
    "-2/5*x^2*y + 1/5*x*y^2 - 1/5*y^2 - 4/5*x + 4/5*y - 3/5",
]


def test_parse_job_basic():
    job = parse_job(job_args())
    assert job.field.kind == "gauss" and job.field.p == 5
    assert job.field.variables == ("x",)
    assert job.command == "radii"
    assert job.op_text.startswith("T^2")


def test_parse_job_missing_input():
    with pytest.raises(ParseError):
        parse_job(["--field", "gauss:p=5:vars=x", "--cmd", "radii"])


def test_parse_job_multi():
    job = parse_job(["--field", "gauss:p=5:vars=x,y", "--cmd",
                     "multi-decompose", "--mat", "1/5,0;0,0",
                     "--mat", "0,0;0,1/5"])
    assert job.field.nderiv == 2
    assert len(job.mat_texts) == 2


@pytest.mark.parametrize("argv, message", [
    (job_args("--bogus"), "unknown flag '--bogus'"),
    (job_args("--bogus", "x"), "unknown flag '--bogus'"),
    (job_args("--out"), "flag --out needs a value"),
    (job_args("--precision", "N=10,q=1"), "unknown precision option 'q'"),
    (["--field", "gauss:p=5:q=1"], "unknown field option 'q'"),
], ids=["unknown-last", "unknown-with-value", "no-value", "precision-key",
        "field-option"])
def test_parse_job_names_the_bad_key(argv, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_job(argv)


def test_parse_job_bad_field():
    with pytest.raises(ParseError):
        parse_job(["--field", "gauss:vars=x", "--cmd", "radii", "--op", "T"])
    with pytest.raises(ParseError):
        parse_job(["--field", "frob:z", "--cmd", "radii", "--op", "T"])


def test_run_radii_report():
    report, code = run(parse_job(job_args()))
    assert code == 0 and report["ok"]
    entries = report["result"]["profile"]["entries"]
    assert [(e["lv"], e["mult"]) for e in entries] == [("1/4", 1), ("5/4", 1)]
    assert report["result"]["rationality"]["ok"]
    assert report["schema"] == 1


def test_run_radii_boundary_flag():
    # a root norm exactly at the derivation norm is clipped and flagged
    report, code = run(parse_job(
        ["--field", "gauss:p=5:vars=x", "--cmd", "radii", "--op", "T - x"]))
    assert code == 0
    assert report["result"]["profile"]["boundary_clipped"] is True


def test_run_decompose_pure():
    report, code = run(parse_job(
        ["--field", "gauss:p=5:vars=x", "--cmd", "decompose",
         "--op", "T - 1/5", "--precision", "N=10,d=32"]))
    assert code == 0
    comps = report["result"]["decomposition"]["components"]
    assert len(comps) == 1 and comps[0]["exact"]


def test_run_decompose_budget_abort():
    report, code = run(parse_job(
        ["--field", "gauss:p=5:vars=x", "--cmd", "decompose",
         "--op", "T^2 - (1/5)*T + x", "--precision", "N=10,d=32,max_iter=0"]))
    assert code == 3
    assert report["error"]["code"] == "iteration-budget"


def test_run_multi_decompose():
    report, code = run(parse_job(
        ["--field", "gauss:p=5:vars=x,y", "--cmd", "multi-decompose",
         "--mat", "1/5,0;0,0", "--mat", "0,0;0,1/5",
         "--precision", "N=10,d=28"]))
    assert code == 0
    keys = sorted(tuple(c["key"]) for c in
                  report["result"]["decomposition"]["components"])
    assert keys == [("1/4", "5/4"), ("5/4", "1/4")]


FLAT_DEN = "(x*y^2 - x - 1)"
FLAT_MATS = (f"0,(-y)/{FLAT_DEN};0,(y^2 - 1)/{FLAT_DEN}",
             f"(x*y)/{FLAT_DEN},(-x^2 - x)/{FLAT_DEN};"
             f"(-1)/{FLAT_DEN},(x*y)/{FLAT_DEN}")


def _transposed(mat):
    rows = [row.split(",") for row in mat.split(";")]
    return ";".join(",".join(col) for col in zip(*rows))


def test_multi_decompose_flat_module_and_its_transpose(capsys):
    # a gauge transform of the trivial module over x, y: flat, with action
    # matrices that do not commute; the transposed pair is not flat
    def argv(mats):
        return ["--field", "gauss:p=5:vars=x,y", "--cmd", "multi-decompose",
                "--mat", mats[0], "--mat", mats[1],
                "--precision", "N=10,d=28"]

    assert main(argv(FLAT_MATS)) == 0
    comps = json.loads(capsys.readouterr().out)["result"]["decomposition"][
        "components"]
    assert [(c["key"], c["operator"]) for c in comps] == [
        (["1/4", "1/4"], "(1)*T^2")]
    assert main(argv([_transposed(m) for m in FLAT_MATS])) == 1
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "integrability"


def test_run_dual_and_verify():
    report, code = run(parse_job(
        ["--field", "gauss:p=5:vars=x", "--cmd", "dual", "--mat", "1/5,0;0,x"]))
    assert code == 0 and report["result"]["profiles_equal"]
    report2, code2 = run(parse_job(
        ["--field", "gauss:p=5:vars=x", "--cmd", "verify",
         "--mat", "1/5,0;0,x", "--precision", "N=10,d=32"]))
    assert code2 == 0 and report2["ok"]
    assert "decomposition" in report2["result"]


# The derivation and the oracle's lv for the zero module over each field.
EMPTY_FIELDS = {"gauss:p=5:vars=x": ("x", "1/4"), "laurent:z": ("z", "1")}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("field", sorted(EMPTY_FIELDS))
def test_zero_module(field, command):
    # the operator 1 presents the zero module: its profile is empty, and
    # radii and verify print the oracle estimate beside it
    var, lv = EMPTY_FIELDS[field]
    report, code = run(parse_job(["--field", field, "--cmd", command,
                                  "--op", "1"]))
    assert code == 0 and report["ok"]
    empty = {"derivation": var, "dim": 0, "entries": [],
             "note": "lv strings are authoritative; decimals are display only"}
    rationality = {"advisory_ok": True, "entries": [], "ok": True}
    certificate = {"dims_ok": True, "direct_sum_ok": True,
                   "marginals_ok": True, "ok": True, "profile_ok": True,
                   "purity_ok": True, "residual_lv": [], "stability_ok": True}
    decomposition = {"certificate": certificate, "components": [], "dim": 0}

    def estimate(lo, hi):
        return {"lv": lv, "spread": "0", "window": [lo, hi]}

    want = {
        "radii": {"profile": empty, "rationality": rationality,
                  "spectral_estimate": estimate(12, 24)},
        "decompose": {"decomposition": decomposition, "profile": empty,
                      "rationality": rationality},
        "multi-decompose": {"decomposition": decomposition,
                            "rationality": {var: rationality}},
        "dual": {"dual_mats": [""], "dual_profile": empty, "profile": empty,
                 "profiles_equal": True},
        "verify": {"dual_profile_equal": True, "profile": empty,
                   "rationality": rationality,
                   "spectral_estimate": estimate(15, 30)},
    }
    assert report["result"] == want[command]


@pytest.mark.parametrize("name, presentations, oracle_steps", [
    ("readme-radii", 1, 24),
    ("readme-decompose", 1, 20),
    ("readme-verify", 6, 50),
    ("readme-multi-decompose", 11, 40),
])
def test_each_fact_is_computed_once(monkeypatch, name, presentations,
                                    oracle_steps):
    # presentations: cyclic candidates drawn; oracle steps: the sum of kmax
    # over every brute-force run.  radii presents the module once and runs
    # the oracle once; decompose presents it once for the decomposition and
    # its profile, and runs the oracle on each of its two components
    # (kmax 10); verify adds one oracle run (kmax 30) and the dual's
    # presentation.  multi-decompose decomposes by x once (6 candidates,
    # the oracle on its two components), whose components are lines: it
    # presents each line once by y and runs the oracle on it (kmax 10),
    # and reads the y marginal's profile off M's first cyclic vector for y
    # (3 candidates).
    counts = {"presentations": 0, "oracle_steps": 0}
    schedule = diffmod._candidate_schedule
    oracle = diffmod.spectral_radius_bruteforce

    def counted_schedule(m, j):
        for vec in schedule(m, j):
            counts["presentations"] += 1
            yield vec

    def counted_oracle(m, j, kmax):
        counts["oracle_steps"] += kmax
        return oracle(m, j, kmax)

    monkeypatch.setattr(diffmod, "_candidate_schedule", counted_schedule)
    for module in (cli, radii, factorize):
        monkeypatch.setattr(module, "spectral_radius_bruteforce",
                            counted_oracle)
    _report, code = run(parse_job(JOBS[name]))
    assert code == 0
    assert counts == {"presentations": presentations,
                      "oracle_steps": oracle_steps}


@pytest.mark.parametrize("name", ["readme-radii", "readme-verify"])
def test_cli_checks_the_estimate_it_reports(monkeypatch, name):
    # an oracle estimate 2 above the truth disagrees with the profile
    oracle = cli.spectral_radius_bruteforce

    def shifted(m, j, kmax):
        est = oracle(m, j, kmax)
        return replace(est, lv=est.lv + 2)

    monkeypatch.setattr(cli, "spectral_radius_bruteforce", shifted)
    report, code = run(parse_job(JOBS[name]))
    assert code == 2
    assert report["error"]["code"] == "certificate-failure"


# T_x = diag(1,1,0)/5, T_y = diag(1,0,1)/5: the first x component is a
# plane, so multi-decompose meets the components of both derivations
PROPER_MEET = ["--field", "gauss:p=5:vars=x,y", "--cmd", "multi-decompose",
               "--mat", "1/5,0,0;0,1/5,0;0,0,0",
               "--mat", "1/5,0,0;0,0,0;0,0,1/5", "--precision", "N=10,d=28"]


@pytest.mark.parametrize("n", ["1", "1/3"])
def test_multi_decompose_at_small_precision(n):
    # the lines' restrictions run at ceil(N) = 1, where 1 is not yet zero
    argv = JOBS["readme-multi-decompose"][:-1] + [f"N={n}"]
    report, code = run(parse_job(argv))
    assert code == 0
    keys = [c["key"] for c in report["result"]["decomposition"]["components"]]
    assert keys == [["5/4", "1/4"], ["1/4", "5/4"]]


LAURENT_CUT_OP = ["--field", "laurent:z", "--cmd", "decompose",
                  "--op", "T^2 - (1/z^3)*T + 1/z", "--precision"]


@pytest.mark.parametrize("d", [20, 22])
def test_laurent_cut_keeps_what_it_knows(d):
    # a Laurent cut at the watermark claimed the digits it dropped, and
    # T times 1/z^3 moved them into the containment band: stability failed
    # on every candidate at these caps, and held at d=64
    def components(cap):
        report, code = run(parse_job(LAURENT_CUT_OP + [f"N=10,d={cap}"]))
        assert code == 0
        return report["result"]["decomposition"]["components"]

    assert components(d) == components(64)


def test_multi_decompose_certifies_its_intersections(monkeypatch):
    # an intersection that drops its column leaves a component uncovered
    intersect = factorize.la.intersect_spans
    dropped = []

    def lossy(u_cols, v_cols, domain):
        out = intersect(u_cols, v_cols, domain)
        if out and not dropped:
            dropped.append(out.pop())
        return out

    assert run(parse_job(PROPER_MEET))[1] == 0
    monkeypatch.setattr(factorize.la, "intersect_spans", lossy)
    report, code = run(parse_job(PROPER_MEET))
    assert dropped
    assert code == 2
    assert report["error"]["code"] == "certificate-failure"


def test_multi_decompose_overstated_intersections_exit_as_certificate_failure(
        gauss5xy):
    m = overstated_meet(gauss5xy)
    report, code = run(parse_job(
        ["--field", "gauss:p=5:vars=x,y", "--cmd", "multi-decompose",
         "--mat", matrix_str(m.mat(0)), "--mat", matrix_str(m.mat(1)),
         "--precision", "N=10,d=28"]))
    assert code == 2
    assert report["error"]["code"] == "certificate-failure"


def test_stability_failure_exits_2(monkeypatch):
    # the README module's x components are lines; tilting each line's
    # column by (1, 1) once the decomposition by x is done leaves a span
    # that T_x does not keep
    decompose, intersect = factorize.decompose, factorize._intersect

    def tilted(spans, n):
        return [[e + 1 for e in col] for col in intersect(spans, n)]

    def then_tilted(m, j, ctx):
        dec = decompose(m, j, ctx)
        monkeypatch.setattr(factorize, "_intersect", tilted)
        return dec

    monkeypatch.setattr(factorize, "decompose", then_tilted)
    report, code = run(parse_job(JOBS["readme-multi-decompose"]))
    assert code == 2
    assert report["error"]["code"] == "stability-failure"


@pytest.mark.parametrize("caught_by", ["oracle", "marginals"])
def test_moved_line_key_exits_as_certificate_failure(monkeypatch, caught_by):
    # each README line's y key moved up by 1: the line's brute-force
    # estimate disagrees with it, and when the estimate is moved along,
    # the y marginal of the keys no longer reproduces M's y profile
    polygon, oracle = factorize.radii_from_polygon, \
        factorize.spectral_radius_bruteforce

    def moved_polygon(p):
        prof = polygon(p)
        if p.deriv != 1:
            return prof
        return radii.RadiusProfile.of(
            [(lv + 1, mult) for lv, mult in prof.entries], prof.dim, 1)

    def moved_oracle(m, j, kmax):
        est = oracle(m, j, kmax=kmax)
        return replace(est, lv=est.lv + 1) if j == 1 else est

    monkeypatch.setattr(factorize, "radii_from_polygon", moved_polygon)
    if caught_by == "marginals":
        monkeypatch.setattr(factorize, "spectral_radius_bruteforce",
                            moved_oracle)
    report, code = run(parse_job(JOBS["readme-multi-decompose"]))
    assert code == 2
    assert report["error"]["code"] == "certificate-failure"
    message = {"oracle": "disagrees with brute-force",
               "marginals": "multi-decomposition certificate failed"}
    assert message[caught_by] in report["error"]["message"]


def test_decompose_without_candidates_exits_as_search_exhausted(monkeypatch):
    monkeypatch.setattr(factorize, "cyclic_presentations",
                        lambda m, j: iter(()))
    report, code = run(parse_job(JOBS["readme-decompose"]))
    assert code == 1
    assert report["error"]["code"] == "search-exhausted"
    assert "attempts" not in report["error"]


def test_rank_shortfall_exits_as_certificate_failure(monkeypatch):
    # each component's span loses its last column in the quotient: the
    # 5/4 line has rank 0, and every candidate fails on it
    intersect = factorize._intersect
    monkeypatch.setattr(factorize, "_intersect",
                        lambda spans, n: intersect(spans, n)[:-1])
    report, code = run(parse_job(JOBS["readme-decompose"]))
    assert code == 2
    assert report["error"]["code"] == "certificate-failure"
    assert report["error"]["message"] == \
        "component for lv 5/4 has rank 0, expected 1"
    assert len(report["error"]["attempts"]) == 6


def test_radii_without_cyclic_vector_exits_as_search_exhausted(monkeypatch):
    # the zero vector spans no Krylov basis, so the profile has no
    # presentation to read
    monkeypatch.setattr(diffmod, "_candidate_schedule",
                        lambda m, j: iter([[m.domain.zero()] * m.dim]))
    report, code = run(parse_job(JOBS["readme-radii"]))
    assert code == 1
    assert report["error"]["code"] == "search-exhausted"


def test_short_lifting_floor_reaches_the_attempts(monkeypatch):
    # every lifted cofactor keeps its digits only to err 11; its T^1
    # coefficient needs 23/2 at N = 10, so each split, and its rerun with
    # one more digit, falls short of the floor
    def coarse(divide):
        def cut(p, q):
            cof, r = divide(p, q)
            return TwistedPoly(cof.domain, cof.deriv,
                               [c.truncate_err(11) for c in cof.coeffs]), r
        return cut

    for name in ("divmod_right", "divmod_left"):
        monkeypatch.setattr(factorize, name,
                            coarse(getattr(factorize, name)))
    report, code = run(parse_job(JOBS["readme-decompose"]))
    assert code == 3
    floor = {"code": "precision-loss",
             "message": "lifting floor 19/2 below target N = 10, short by 1"}
    error = report["error"]
    assert {key: error[key] for key in floor} == floor
    # the other candidates of the schedule are not expandable; each of
    # the 3 that split lists its run and its rerun
    assert [a for a in error["attempts"]
            if a["code"] == "precision-loss"] == [floor] * 6


def test_precision_loss_without_shortfall_is_not_rerun(monkeypatch):
    # at d = 14 the watermark d - (2n + 10) of the certificate quotient is
    # below 2 for n = 2; more working digits do not lift it, so no
    # candidate is rerun, and the degree cap is checked before any split
    right_chain, splits = factorize._right_chain, []

    def counted(*args):
        splits.append(args)
        return right_chain(*args)

    monkeypatch.setattr(factorize, "_right_chain", counted)
    report, code = run(parse_job([
        "--field", "gauss:p=5:vars=x", "--cmd", "decompose",
        "--op", "T^2 - (1/5)*T + x", "--precision", "N=10,d=14"]))
    assert code == 3
    cap = {"code": "precision-loss",
           "message": "degree cap d=14 too small for dimension 2"}
    error = report["error"]
    assert {key: error[key] for key in cap} == cap
    assert [a for a in error["attempts"]
            if a["code"] == "precision-loss"] == [cap] * 3
    assert splits == []


@pytest.mark.parametrize("args,deriv", [
    (op_args("T^2 - (1/5)*T + x^-2"), "x"),
    (["--field", "gauss:p=5:vars=x,y", "--cmd", "radii",
      "--mat", "1/5,0;0,0", "--mat", "0,0;0,1/5", "--deriv", "y"], "y"),
], ids=["negative-scalar-power", "deriv-y"])
def test_radii_of_negative_powers_and_named_derivations(args, deriv):
    report, code = run(parse_job(args))
    assert code == 0
    prof = report["result"]["profile"]
    assert prof["derivation"] == deriv
    assert [(e["lv"], e["mult"]) for e in prof["entries"]] == \
        [("1/4", 1), ("5/4", 1)]


@pytest.mark.parametrize("argv,message", [
    (op_args("T^-1 + x"), "negative power of an operator (at position 1)"),
    (["--field", "gauss:p=5:vars=x,y", "--cmd", "radii",
      "--mat", "1/5,0;0,0", "--mat", "0,0;0,1/5", "--deriv", "z"],
     "unknown derivation 'z'"),
    # the end of the input is named, not printed as the token value None
    (op_args(""), "unexpected token end of input (at position 0)"),
    (op_args("(x"), "expected ')', found end of input (at position 2)"),
    (op_args("T^"), "expected 'int', found end of input (at position 2)"),
    # positions inside a --mat entry count from the start of the --mat text
    (["--field", "gauss:p=5:vars=x", "--cmd", "radii", "--mat", "1,2;3,"],
     "unexpected token end of input (at position 6)"),
    (["--cmd", "radii", "--op", "T"], "missing --field"),
    (["--field", "gauss:p=5:vars=x", "--cmd", "nope", "--op", "T"],
     "--cmd must be one of radii, decompose, multi-decompose, dual, verify"),
    (op_args("T") + ["--mat", "1"], "--op and --mat are mutually exclusive"),
    (["--field", "gauss:p=5:vars=x,y", "--cmd", "radii",
      "--mat", "1", "--mat", "1", "--mat", "1"],
     "need one --mat per derivation"),
    (["--field", "gauss:p=5:vars=x,y", "--cmd", "multi-decompose",
      "--mat", "1/5"], "multi-decompose needs one --mat per derivation"),
], ids=["negative-operator-power", "unknown-deriv", "end-empty",
        "end-open-parenthesis", "end-bare-power", "end-empty-entry",
        "no-field", "unknown-cmd", "op-and-mat", "three-mats",
        "multi-one-mat"])
def test_main_parse_error_messages(capsys, argv, message):
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == {"code": "parse-error", "message": message}


def test_determinism():
    args = job_args()
    r1, _ = run(parse_job(args))
    r2, _ = run(parse_job(args))
    r1.pop("timing_ms")
    r2.pop("timing_ms")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_main_exit_codes(capsys):
    assert main(job_args()) == 0
    out = capsys.readouterr().out
    json.loads(out)
    assert main(["--field", "gauss:p=5:vars=x", "--cmd", "radii"]) == 1


@pytest.mark.parametrize("args", [
    ["--field", "gauss:p=abc"],
    ["--precision", "N=abc"],
    ["--precision", "N=1/0"],
    ["--precision", "d=abc"],
    ["--precision", "max_iter=abc"],
    ["--precision", "max_iter=-1"],
], ids=["field-p", "N", "N-zero-denominator", "d", "max_iter",
        "max_iter-negative"])
def test_main_bad_numbers_exit_as_json(capsys, args):
    assert main(job_args(*args)) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["error"]["code"] == "parse-error"


@pytest.mark.parametrize("argv", [
    ["--field", "gauss:p=5:vars=x,y", "--cmd", "multi-decompose",
     "--mat", "x", "--mat", "1,0;0,1"],
    ["--field", "laurent:T", "--cmd", "radii", "--op", "T"],
    ["--field", "gauss:p=5:vars=T", "--cmd", "radii", "--op", "T"],
    ["--field", "gauss:p=5:vars=x,T", "--cmd", "radii", "--op", "T"],
    op_args("T + x^513"),
    op_args("T + x^1000000000"),
    op_args("T^1000000000"),
    op_args("((x+1)^32)^32"),
    op_args("T + (x+1)^512"),
    ["--field", "laurent:z:p=5", "--cmd", "radii", "--op", "T"],
    ["--field", "laurent:", "--cmd", "radii", "--op", "T"],
    ["--field", "gauss:p=5:vars=1", "--cmd", "radii", "--op", "T"],
    ["--field", "laurent:2z", "--cmd", "radii", "--op", "T"],
    ["--field", "gauss:p=5:vars=x,x", "--cmd", "radii", "--op", "T"],
    ["--field", "gauss:p=5:p=7:vars=x:vars=y", "--cmd", "radii",
     "--op", "T^2 - (1/5)*T + y"],
    ["--field", "gauss:p=5:p=7", "--cmd", "radii", "--op", "T"],
    ["--field", "gauss:vars=x:p=5:vars=y", "--cmd", "radii", "--op", "T"],
    job_args("--precision", "N=10,N=20"),
    job_args("--precision", "d=32,max_iter=5,d=48"),
    job_args("--field", "gauss:p=7:vars=x"),
    job_args("--cmd", "decompose"),
    job_args("--op", "T + x"),
    job_args("--deriv", "x", "--deriv", "x"),
    job_args("--precision", "N=10", "--precision", "N=20"),
    job_args("--out", "a.json", "--out", "b.json"),
    ["--field", "gauss:p=5:vars=x", "--cmd", "radii",
     "--op", "T + " + "1" * 5000],
    ["--field", "gauss:p=5:vars=x", "--cmd", "dual",
     "--op", "T^2 - (1/5)*T + (7^512)^10*x"],
    job_args("--precision", "N=501"),
    job_args("--precision", "N=1001/2"),
    job_args("--precision", "d=129"),
    job_args("--precision", "max_iter=1001"),
    ["--field", "gauss:p=5:vars=x", "--cmd", "decompose",
     "--op", "T^13 - (1/5)*T + x"],
    ["--field", "gauss:p=5:vars=x", "--cmd", "radii",
     "--mat", ";".join([",".join(["1/5"] * 13)] * 13)],
    ["--field", "gauss:p=5:vars=x,y", "--cmd", "multi-decompose",
     "--mat", ";".join(["0"] * 13), "--mat", "0"],
    op_args("T + " + "(" * 200 + "x" + ")" * 200),
    op_args("T + " + "-" * 1200 + "x"),
    ["--field", "gauss:p=5:vars=x", "--cmd", "radii",
     "--mat", ",".join(["x+1"] * 100000)],
    ["--field", "gauss:p=5:vars=x", "--cmd", "decompose",
     "--op", "T^12 - (1/5)*T + x", "--precision", "N=500,d=128"],
    ["--field", "gauss:p=5:vars=x,y", "--cmd", "multi-decompose",
     "--mat", SHEARED_README_MATS[0], "--mat", SHEARED_README_MATS[1],
     "--precision", "N=10,d=128"],
    ["--field", "gauss:p=5:vars=x", "--cmd", "radii", "--mat", "1,2;3,$"],
    ["--field", "gauss:p=5:vars=x", "--cmd", "radii", "--mat", "1,2;3,x+"],
    op_args("T + 0^-1"),
    ["--field", "laurent:z", "--cmd", "radii", "--mat", "(z-z)^-1"],
    op_args("T^300*T^300"),
    ["--field", f"gauss:p={2 ** 61 - 1}:vars=x", "--cmd", "radii",
     "--op", "T"],
    ["--field", f"gauss:p={(2 ** 31 - 1) * (2 ** 61 - 1)}:vars=x",
     "--cmd", "radii", "--op", "T"],
], ids=["mat-sizes", "laurent-T", "gauss-T", "gauss-x-T", "exponent-513",
        "exponent-1e9", "operator-exponent-1e9", "nested-power-degree",
        "power-degree-512", "laurent-extra-part", "laurent-empty-var",
        "gauss-var-1", "laurent-var-2z", "gauss-duplicate-vars",
        "field-p-and-vars-twice", "field-p-twice", "field-vars-twice",
        "precision-N-twice", "precision-d-twice", "flag-field-twice",
        "flag-cmd-twice", "flag-op-twice", "flag-deriv-twice",
        "flag-precision-twice", "flag-out-twice", "literal-5000-digits",
        "dual-coefficient-height", "cap-N", "cap-N-fraction", "cap-d",
        "cap-max_iter", "cap-op-degree", "cap-mat-size",
        "cap-mat-rows", "nested-200-parentheses", "nested-1200-signs",
        "mat-row-100000-wide", "joint-cap-univariate",
        "joint-cap-bivariate", "mat-entry-character", "mat-entry-end",
        "negative-power-of-zero", "mat-negative-power-of-zero",
        "operator-product-degree-600", "field-p-61-bit-prime",
        "field-p-semiprime"])
def test_main_bad_input_exits_as_json(capsys, request, argv):
    t0 = time.monotonic()
    assert main(argv) == 1
    assert time.monotonic() - t0 < 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["error"]["code"] == "parse-error"
    position = BAD_INPUT_POSITIONS.get(request.node.callspec.id)
    if position is not None:
        assert report["error"]["message"].endswith(
            f"(at position {position})")


# Offsets in the --mat text of the errors inside an entry: '$' at 6, and
# the end of input at 8; the '^' of a negative power of zero, and the '*'
# of a product past the degree cap.
BAD_INPUT_POSITIONS = {"mat-entry-character": 6, "mat-entry-end": 8,
                       "negative-power-of-zero": 5,
                       "mat-negative-power-of-zero": 5,
                       "operator-product-degree-600": 5}


def test_exit_codes_match_the_readme_table():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = {}
    for line in readme.read_text().splitlines():
        row = re.fullmatch(r"\| (\d) \| (.*) \|", line)
        if row:
            for code in re.findall(r"`([a-z-]+)`", row.group(2)):
                table[code] = int(row.group(1))
    declared = {cls.code: cls.exit_code for cls in vars(errors).values()
                if isinstance(cls, type) and issubclass(cls, PadicDMError)}
    assert len(declared) == 16
    assert declared == table


def test_main_not_expandable_exits_1(capsys):
    # 1/x has no expansion in the approximation ring of the Gauss model
    argv = ["--field", "gauss:p=5:vars=x", "--cmd", "decompose",
            "--op", "T^2 - (1/5)*T + 1/x", "--precision", "N=10,d=32"]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    error = report["error"]
    assert error["code"] == "not-expandable"
    # every cyclic-vector attempt is listed, the reported one last
    assert error["attempts"]
    assert error["attempts"][-1] == {"code": error["code"],
                                     "message": error["message"]}


def test_main_radii_on_degree_64_coefficient(capsys):
    # the largest coefficient degree the parser admits: its exact
    # G_k products are dense univariate ones
    argv = ["--field", "gauss:p=5:vars=x", "--cmd", "radii",
            "--op", "T + (x+1)^64"]
    t0 = time.monotonic()
    assert main(argv) == 0
    assert time.monotonic() - t0 < 5
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_main_height_cap_reads_printed_coefficients(capsys):
    # x/3^1000 + 1/2^1500 prints rationals of at most 1585 bits, under the
    # cap, though it is stored over the 3085-bit denominator 2^1500 * 3^1000
    argv = ["--field", "gauss:p=5:vars=x", "--cmd", "radii",
            "--op", "T + x/((3^500)^2) + 1/((2^500)^3)"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_main_out_holds_the_printed_report(capsys, tmp_path):
    out = tmp_path / "report.json"
    assert main(job_args("--out", str(out))) == 0
    assert out.read_text() == capsys.readouterr().out


@pytest.mark.parametrize("command", ["dual", "radii"])
def test_one_mat_on_two_variables_carries_the_named_derivation(capsys,
                                                               command):
    # one --mat fills the slot of --deriv; the other derivation is absent
    assert main(["--field", "gauss:p=5:vars=x,y", "--cmd", command,
                 "--mat", "1/5,0;0,y", "--deriv", "y"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    if command == "dual":
        assert result["dual_mats"] == [None, "-1/5,0;0,-y"]
    assert [(e["lv"], e["mult"]) for e in result["profile"]["entries"]] \
        == [("1/4", 1), ("5/4", 1)]


def test_main_unwritable_out(capsys, tmp_path):
    out = tmp_path / "missing" / "report.json"
    assert main(job_args("--out", str(out))) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["error"]["code"] == "output-error"
    assert not out.exists()


def test_scalar_roundtrip(gauss5):
    samples = ["(x^2+1)/(5*x)", "1/5", "-x", "3*x^2 - 2*x + 7/25",
               "(x+1)/(1+5*x)"]
    for text in samples:
        value = parse_scalar(text, gauss5)
        again = parse_scalar(str(value), gauss5)
        assert again == value


def test_operator_roundtrip(gauss5):
    p = parse_operator("T^2 - (1/5)*T + x", gauss5)
    assert p.degree == 2
    q = parse_operator(str(p), gauss5)
    assert q == p
    # coefficient notation: T*x and x*T denote the same operator
    assert parse_operator("T*x", gauss5) == parse_operator("x*T", gauss5)


def test_matrix_roundtrip(gauss5):
    m = parse_matrix("1/5,0;x,(x+1)/(1+5*x)", gauss5)
    m2 = parse_matrix(matrix_str(m), gauss5)
    assert all((a - b).is_zero() for ra, rb in zip(m, m2)
               for a, b in zip(ra, rb))


def test_nesting_is_bounded(gauss5):
    deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_scalar(deepest, gauss5) == parse_scalar("x", gauss5)
    assert parse_scalar("-" * MAX_NESTING + "x", gauss5) \
        == parse_scalar("x", gauss5)
    for text in ["(" + deepest + ")", "x + -" + "-+" * (MAX_NESTING // 2)
                 + "x", "x * " + "(-" * MAX_NESTING + "x" + ")" * MAX_NESTING]:
        with pytest.raises(ParseError, match="nesting deeper"):
            parse_operator(text, gauss5)
    with pytest.raises(ParseError, match="nesting deeper") as err:
        parse_matrix("1,0;0," + "(" * 100 + "1" + ")" * 100, gauss5)
    # the offset in the matrix text: the entry starts after "1,0;0,"
    assert err.value.position == len("1,0;0,") + MAX_NESTING


def test_matrix_shape_is_checked_before_any_entry(monkeypatch, gauss5):
    parsed = []
    monkeypatch.setattr(grammar, "parse_scalar",
                        lambda text, field: parsed.append(text))
    for text in [",".join(["x+1"] * 20000), "1,0;0", "1;0"]:
        with pytest.raises(ParseError, match="not square"):
            parse_matrix(text, gauss5)
    assert parsed == []


def test_operator_products_obey_the_degree_cap(monkeypatch, gauss5):
    # a product is refused as a power of that degree is, before it is formed
    assert parse_operator("T^256*T^255", gauss5).degree == 511
    for text in ["T^300*T^300", "T^511*T", "T^512"]:
        with pytest.raises(ParseError, match="operator degree too large"):
            parse_operator(text, gauss5)
    lengths = []
    capped = grammar._capped

    def recorded(a, pos):
        lengths.append(len(a))
        return capped(a, pos)

    monkeypatch.setattr(grammar, "_capped", recorded)
    with pytest.raises(ParseError, match="operator degree too large"):
        parse_operator("(T+1)^3*T^300*T^300", gauss5)
    assert max(lengths) <= grammar.MAX_DEGREE


def test_powers_are_formed_by_squaring(monkeypatch, gauss5):
    # a small power is the repeated product; (T+1)^511 takes at most two
    # products per bit of the exponent
    base = [parse_scalar("1/5", gauss5), parse_scalar("x+2", gauss5)]
    power = [gauss5.one()]
    for e in range(9):
        assert grammar._ppow(base, e, 0) == power
        power = grammar._pmul(power, base, 0)
    calls = []
    pmul = grammar._pmul

    def counted(a, b, pos):
        calls.append(pos)
        return pmul(a, b, pos)

    monkeypatch.setattr(grammar, "_pmul", counted)
    assert parse_operator("(T+1)^511", gauss5).degree == 511
    assert len(calls) <= 2 * (511).bit_length()


def test_negative_power_of_zero_is_a_division_by_zero(gauss5, laurent):
    for text, field in [("0^-1", gauss5), ("(x-x)^-3", gauss5),
                        ("(z-z)^-1", laurent), ("1/(0^-2)", laurent)]:
        with pytest.raises(ParseError, match="division by zero"):
            parse_scalar(text, field)
    assert parse_scalar("(2*x)^-2", gauss5) == parse_scalar("1/(4*x^2)", gauss5)


# Short operator texts: well-formed expressions over small atoms, with
# negative and zero powers and divisions, or any characters of the
# operator alphabet.
OPERATOR_ALPHABET = "0123456789xT+-*/^()"
OPERATOR_TEXTS = st.one_of(
    st.recursive(
        st.sampled_from(["0", "1", "2", "5", "12", "x", "T"]),
        lambda inner: st.one_of(
            st.builds("({}{}{})".format, inner, st.sampled_from("+-*/"),
                      inner),
            st.builds("{}^{}".format, inner,
                      st.sampled_from(["-2", "-1", "0", "1", "3", "9"]))),
        max_leaves=6),
    st.text(OPERATOR_ALPHABET, max_size=10))


@given(OPERATOR_TEXTS)
@settings(max_examples=150, deadline=None)
def test_operator_text_parses_or_is_a_parse_error(text):
    try:
        parse_operator(text, FieldSpec.gauss(5, ("x",)))
    except ParseError:
        pass


def test_parse_errors_have_positions(gauss5):
    with pytest.raises(ParseError) as err:
        parse_scalar("x + $", gauss5)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_scalar("T + 1", gauss5)   # T not allowed in scalar input
    with pytest.raises(ParseError):
        parse_scalar("x + w", gauss5)   # unknown symbol
    with pytest.raises(ParseError):
        parse_operator("1/T", gauss5)   # operator in a denominator

"""CLI: job parsing, report payloads, exit codes, round trips."""

import json
import time

import pytest

from padic_dm import ParseError
from padic_dm.cli import main, parse_job, run
from padic_dm.grammar import (matrix_str, parse_matrix, parse_operator,
                              parse_scalar)


def job_args(*extra):
    return ["--field", "gauss:p=5:vars=x", "--cmd", "radii",
            "--op", "T^2 - (1/5)*T + x", *extra]


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


def test_env_override(monkeypatch):
    monkeypatch.setenv("PADIC_DM_MAX_ITER", "0")
    report, code = run(parse_job(
        ["--field", "gauss:p=5:vars=x", "--cmd", "decompose",
         "--op", "T^2 - (1/5)*T + x", "--precision", "N=10,d=32"]))
    assert code == 3


def test_run_multi_decompose():
    report, code = run(parse_job(
        ["--field", "gauss:p=5:vars=x,y", "--cmd", "multi-decompose",
         "--mat", "1/5,0;0,0", "--mat", "0,0;0,1/5",
         "--precision", "N=10,d=28"]))
    assert code == 0
    keys = sorted(tuple(c["key"]) for c in
                  report["result"]["decomposition"]["components"])
    assert keys == [("1/4", "5/4"), ("5/4", "1/4")]


def test_run_dual_and_verify():
    report, code = run(parse_job(
        ["--field", "gauss:p=5:vars=x", "--cmd", "dual", "--mat", "1/5,0;0,x"]))
    assert code == 0 and report["result"]["profiles_equal"]
    report2, code2 = run(parse_job(
        ["--field", "gauss:p=5:vars=x", "--cmd", "verify",
         "--mat", "1/5,0;0,x", "--precision", "N=10,d=32"]))
    assert code2 == 0 and report2["ok"]
    assert "decomposition" in report2["result"]


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


@pytest.mark.parametrize("args, env", [
    (["--field", "gauss:p=abc"], None),
    (["--precision", "N=abc"], None),
    (["--precision", "N=1/0"], None),
    (["--precision", "d=abc"], None),
    (["--precision", "max_iter=abc"], None),
    ([], "x"),
    ([], "-1"),
], ids=["field-p", "N", "N-zero-denominator", "d", "max_iter",
        "env-not-int", "env-negative"])
def test_main_bad_numbers_exit_as_json(capsys, monkeypatch, args, env):
    if env is not None:
        monkeypatch.setenv("PADIC_DM_MAX_ITER", env)
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
    job_args("--op", "T + x^513"),
    job_args("--op", "T + x^1000000000"),
    job_args("--op", "T^1000000000"),
    job_args("--op", "((x+1)^32)^32"),
    job_args("--op", "T + (x+1)^512"),
], ids=["mat-sizes", "laurent-T", "gauss-T", "gauss-x-T", "exponent-513",
        "exponent-1e9", "operator-exponent-1e9", "nested-power-degree",
        "power-degree-512"])
def test_main_bad_input_exits_as_json(capsys, argv):
    t0 = time.monotonic()
    assert main(argv) == 1
    assert time.monotonic() - t0 < 5
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["error"]["code"] == "parse-error"


def test_main_not_expandable_exits_1(capsys):
    # 1/x has no expansion in the approximation ring of the Gauss model
    argv = ["--field", "gauss:p=5:vars=x", "--cmd", "decompose",
            "--op", "T^2 - (1/5)*T + 1/x", "--precision", "N=10,d=32"]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["error"]["code"] == "not-expandable"


def test_main_radii_on_degree_64_coefficient(capsys):
    # the largest coefficient degree the parser admits: its exact
    # G_k products are dense univariate ones
    argv = ["--field", "gauss:p=5:vars=x", "--cmd", "radii",
            "--op", "T + (x+1)^64"]
    t0 = time.monotonic()
    assert main(argv) == 0
    assert time.monotonic() - t0 < 5
    assert json.loads(capsys.readouterr().out)["ok"] is True


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

"""Full CLI reports, pinned: each job's report (minus ``timing_ms``) must
match its recorded copy under ``tests/golden/`` byte for byte.

Record the copies again only when a report is meant to change:

    PYTHONPATH=src python3 tests/test_golden_reports.py --record
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from padic_dm.cli import parse_job, run

GOLDEN = Path(__file__).resolve().parent / "golden"

# Block modules of the benchmark's decompose corpora (gauss#15 of seed 202,
# gauss#13 of seed 203).  The first cyclic candidate of each is not
# expandable, so each decomposition is built from the second.  Of these
# two candidates, only the second of CLIP_LATER and only the first of
# CLIP_FIRST has a polygon slope at lv_dsp (``boundary_clipped``).
CLIP_LATER = "5,0,0;-370*x + 739,375,0;0,0,1/25"
CLIP_FIRST = "125,0,0;0,3/125,0;0,0,375"

# A dense 8 x 8 Gauss module, entries drawn by random.Random(0) from 0, 1,
# 2, x, 1/5 and x/5: its cyclic presentation solves a full Krylov system.
DENSE_8 = ("x,x,0,2,1/5,x,x,2;x,2,1/5,1,1/5,1,2,1;0,1/5,2,1/5,x/5,1/5,1,2;"
           "0,x/5,0,x/5,2,x,1/5,0;2,x,2,1/5,x/5,1,1/5,x;"
           "x,1/5,2,0,1/5,0,0,x/5;x,x/5,x/5,x/5,0,1/5,x,2;"
           "1,x/5,2,x/5,0,1,1/5,1")

JOBS = {
    "readme-radii": ["--field", "gauss:p=5:vars=x", "--cmd", "radii",
                     "--op", "T^2 - (1/5)*T + x"],
    "readme-decompose": ["--field", "gauss:p=5:vars=x", "--cmd", "decompose",
                         "--op", "T^2 - (1/5)*T + x",
                         "--precision", "N=10,d=48"],
    "readme-multi-decompose": ["--field", "gauss:p=5:vars=x,y",
                               "--cmd", "multi-decompose",
                               "--mat", "1/5,0;0,0", "--mat", "0,0;0,1/5",
                               "--precision", "N=10,d=28"],
    "readme-verify": ["--field", "laurent:z", "--cmd", "verify",
                      "--mat", "1/(z^3),0;0,1"],
    "laurent-decompose": ["--field", "laurent:z", "--cmd", "decompose",
                          "--op", "T^2 - (1/z^3)*T + 1/z"],
    "laurent-verify": ["--field", "laurent:z", "--cmd", "verify",
                       "--op", "T^3 - (1/z^4)*T^2 + (1/z)*T + 1"],
    "decompose-N80": ["--field", "gauss:p=5:vars=x", "--cmd", "decompose",
                      "--op", "T^2 - (1/5)*T + x",
                      "--precision", "N=80,d=48"],
    "radii-gauss-5x1": ["--field", "gauss:p=5:vars=x", "--cmd", "radii",
                        "--op", "T^2 - (1/(5*x+1))*T + x"],
    "verify-laurent-two-dens": ["--field", "laurent:z", "--cmd", "verify",
                                "--mat", "1/(z^3+z^4),0;0,1/(1+z)"],
    "radii-gauss-bivariate": ["--field", "gauss:p=5:vars=x,y", "--cmd", "radii",
                              "--mat", "1/(5*x+1),x;0,1/5",
                              "--mat", "0,0;0,0"],
    "radii-gauss-dense-8x8": ["--field", "gauss:p=5:vars=x", "--cmd", "radii",
                              "--mat", DENSE_8],
    # A pole on |x| = 1: the common denominator x - 2 is a unit, so no
    # power of T can pass the oracle's clip.
    "radii-gauss-unit-pole": ["--field", "gauss:p=5:vars=x", "--cmd", "radii",
                              "--op", "T^2 - T + 1/(x-2)"],
    # Common denominator z^3: the oracle steps, and every step is read.
    "radii-laurent-z3": ["--field", "laurent:z", "--cmd", "radii",
                         "--mat", "1/(z^3),z;0,1/z"],
    "decompose-gauss-clip-later": ["--field", "gauss:p=5:vars=x",
                                   "--cmd", "decompose",
                                   "--mat", CLIP_LATER,
                                   "--precision", "N=10,d=48,max_iter=80"],
    "verify-gauss-clip-later": ["--field", "gauss:p=5:vars=x",
                                "--cmd", "verify", "--mat", CLIP_LATER,
                                "--precision", "N=10,d=48,max_iter=80"],
    "decompose-gauss-clip-first": ["--field", "gauss:p=5:vars=x",
                                   "--cmd", "decompose",
                                   "--mat", CLIP_FIRST,
                                   "--precision", "N=10,d=48,max_iter=80"],
    "verify-gauss-clip-first": ["--field", "gauss:p=5:vars=x",
                                "--cmd", "verify", "--mat", CLIP_FIRST,
                                "--precision", "N=10,d=48,max_iter=80"],
}


def report_text(argv: list) -> str:
    """The job's report as the CLI prints it, without ``timing_ms``."""
    report, code = run(parse_job(argv))
    assert code == 0, report.get("error")
    report.pop("timing_ms")
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(JOBS))
def test_report_matches_golden(name):
    want = (GOLDEN / f"{name}.json").read_text()
    assert report_text(JOBS[name]) == want


# Runs every job in a fresh interpreter and prints the names of those whose
# report differs from its golden copy, then whether sympy got imported.
_CHILD = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["sympy"] = None
from test_golden_reports import GOLDEN, JOBS, report_text
print([n for n, argv in JOBS.items()
       if report_text(argv) != (GOLDEN / f"{n}.json").read_text()])
print(sys.modules.get("sympy", "absent"))
"""


@pytest.mark.parametrize("mode", ["blocked", "plain"])
def test_reports_need_no_sympy(mode):
    """The package has no runtime dependency: with sympy made unimportable
    every report still matches its golden copy, and a plain run never
    imports sympy."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here),
                            os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", _CHILD, mode],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.splitlines() == ["[]", "None" if mode == "blocked" else "absent"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_golden_reports.py --record")
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in JOBS.items():
        (GOLDEN / f"{name}.json").write_text(report_text(argv))

"""Full CLI reports, pinned: each job's report (minus ``timing_ms``) must
match its recorded copy under ``tests/golden/`` byte for byte.

Record the copies again only when a report is meant to change:

    PYTHONPATH=src python3 tests/test_golden_reports.py --record
"""

import json
import sys
from pathlib import Path

import pytest

from padic_dm.cli import parse_job, run

GOLDEN = Path(__file__).resolve().parent / "golden"

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


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_golden_reports.py --record")
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in JOBS.items():
        (GOLDEN / f"{name}.json").write_text(report_text(argv))

"""The four benchmark workloads: job lists, one job, and the gate.

A workload builds its job list from a corpus seed (`make_jobs`), runs one
job (`run`) and judges the result (`check`).  `check` returns None when
the job passed and a short reason otherwise; an exception raised by the
job is a failure too.  Library entry points are looked up through their
modules at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import padic_dm
from padic_dm import PrecisionCtx

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden" / "cli_cold.json"

CTX_DECOMPOSE = PrecisionCtx(Fraction(10), d=48, max_iter=80)
CTX_MULTI = PrecisionCtx(Fraction(10), d=28, max_iter=80)
MULTI_KEYS = [("1/4", "5/4"), ("5/4", "1/4")]


@dataclass(frozen=True)
class Job:
    label: str          # e.g. "gauss#3"
    payload: object
    expected: object


def _block_jobs(seed: int, per_field: int) -> list:
    """Alternate Gauss and Laurent modules of the block corpus."""
    gauss = corpus.block_corpus(corpus.GAUSS, seed, per_field)
    laurent = corpus.block_corpus(corpus.LAURENT, seed, per_field)
    jobs = []
    for i in range(per_field):
        for name, corp in (("gauss", gauss), ("laurent", laurent)):
            m, expected = corp[i]
            jobs.append(Job(f"{name}#{i}", m, expected))
    return jobs


def _dims_by_key(components) -> dict:
    got: dict = {}
    for c in components:
        got[c.key] = got.get(c.key, 0) + c.dim
    return got


class Decompose:
    name = "decompose"
    in_process = True
    default_seed = 202
    per_field = 16

    def make_jobs(self, seed: int) -> list:
        return _block_jobs(seed, self.per_field)

    def run(self, job: Job):
        return padic_dm.factorize.decompose(job.payload, 0, CTX_DECOMPOSE)

    def check(self, job: Job, dec) -> str | None:
        if sum(c.dim for c in dec.components) != job.payload.dim:
            return "component dims do not add up to the module dim"
        if _dims_by_key(dec.components) != job.expected:
            return "component keys/dims differ from the constructed profile"
        if not dec.certificate.ok:
            return "certificate not ok"
        return None


class Radii:
    name = "radii"
    in_process = True
    default_seed = 202
    per_field = 28

    def make_jobs(self, seed: int) -> list:
        return _block_jobs(seed, self.per_field)

    def run(self, job: Job):
        m = job.payload
        prof = padic_dm.radii.profile(m, 0)
        est = padic_dm.diffmod.spectral_radius_bruteforce(m, 0, kmax=24)
        rep = padic_dm.radii.check_rationality(prof, m.field)
        return prof, est, rep

    def check(self, job: Job, result) -> str | None:
        prof, _est, rep = result
        if dict(prof.entries) != job.expected:
            return "profile differs from the constructed profile"
        if not rep.ok:
            return "rationality report not ok"
        return None


class MultiDecompose:
    name = "multi-decompose"
    in_process = True
    default_seed = 505
    count = 4

    def make_jobs(self, seed: int) -> list:
        marginals = [corpus.multi_marginal(j) for j in range(2)]
        return [Job(f"variant#{i}", m, marginals)
                for i, m in enumerate(corpus.multi_variants(seed, self.count))]

    def run(self, job: Job):
        return padic_dm.factorize.multi_decompose(job.payload, CTX_MULTI)

    def check(self, job: Job, dec) -> str | None:
        keys = sorted(tuple(str(k) for k in c.key) for c in dec.components)
        if keys != MULTI_KEYS:
            return f"keys {keys}"
        for pos, j in enumerate(job.payload.derivations):
            marg: dict = {}
            for c in dec.components:
                marg[c.key[pos]] = marg.get(c.key[pos], 0) + c.dim
            if marg != job.expected[j]:
                return f"marginal {pos} differs from the single profile"
        if not dec.certificate.ok:
            return "certificate not ok"
        return None


def report_summary(report: dict) -> dict:
    """The parts of a CLI report the gate compares with the golden copy:
    profile entries, component keys, dims and exact flags."""
    res = report.get("result", {})
    out = {"ok": report.get("ok")}
    if "profile" in res:
        out["profile"] = [[e["lv"], e["mult"]]
                          for e in res["profile"]["entries"]]
    if "decomposition" in res:
        out["components"] = [[c["key"], c["dim"], c["exact"]]
                             for c in res["decomposition"]["components"]]
    return out


@dataclass
class ChildResult:
    returncode: int
    report: dict | None
    stderr: str
    speed: float | None = None   # host speed the child measured
    paused: float = 0.0          # seconds the child spent measuring it


def run_child(argv: list, env: dict) -> ChildResult:
    """Run one process to completion; stdout is parsed as a JSON report
    and, with a clocked child, the last stderr line as its clock."""
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    try:
        report = json.loads(proc.stdout) if proc.stdout.strip() else None
    except json.JSONDecodeError:
        report = None
    res = ChildResult(proc.returncode, report, proc.stderr)
    if "--clock" in argv[:3] and proc.stderr.strip():
        try:
            clock = json.loads(proc.stderr.splitlines()[-1])
        except json.JSONDecodeError:
            return res
        res.speed, res.paused = clock["speed"], clock["paused"]
    return res


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class CliCold:
    name = "cli-cold"
    in_process = False
    default_seed = None

    def __init__(self):
        self.env = child_env()
        self.traced = False
        self.spans_dir = None

    def make_jobs(self, seed) -> list:
        golden = json.loads(GOLDEN.read_text())
        return [Job(name, argv, golden[name])
                for name, argv in corpus.README_JOBS.items()]

    def run(self, job: Job) -> ChildResult:
        cmd = [sys.executable, str(HERE / "cli_child.py")]
        if self.traced:
            spans = self.spans_dir / f"{self.name}-{job.label}.spans"
            cmd += ["--trace", str(spans)]
        else:
            cmd += ["--clock"]
        return run_child(cmd + job.payload, self.env)

    def check(self, job: Job, res: ChildResult) -> str | None:
        if res.returncode != 0:
            return f"exit code {res.returncode}: {res.stderr[-300:]}"
        if res.report is None or res.report.get("ok") is not True:
            return "report missing or not ok"
        if report_summary(res.report) != job.expected:
            return "report differs from the golden report"
        return None


WORKLOADS = {w.name: w for w in (Decompose, MultiDecompose, Radii, CliCold)}


def record_golden():
    """Write the golden summaries of the README jobs at this commit."""
    golden = {}
    for name, argv in corpus.README_JOBS.items():
        res = run_child([sys.executable, "-m", "padic_dm.cli", *argv],
                        child_env())
        if res.returncode != 0:
            raise SystemExit(f"{name}: exit code {res.returncode}")
        golden[name] = report_summary(res.report)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    # PYTHONPATH=src python3 perfbench/workloads.py record-golden
    if sys.argv[1:] != ["record-golden"]:
        raise SystemExit("usage: workloads.py record-golden")
    record_golden()

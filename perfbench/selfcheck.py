"""Self-checks of the benchmark itself (not part of the test suite).

    python3 perfbench/selfcheck.py

1. Two traced passes over the same jobs give identical counts.
2. After a traced pass every wrapped attribute is the original object.
3. The gate fails on corrupted results (wrong key, dropped component,
   bad exit code), and a job that raises counts as failed.

Prints one PASS/FAIL line per check; exits 1 if any check failed.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from padic_dm import LogVal  # noqa: E402

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as W  # noqa: E402

RESULTS: list = []


def report(name: str, ok: bool, detail: str = ""):
    RESULTS.append(ok)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{': ' + detail if detail else ''}")


def traced_counts(cases) -> dict:
    """Trace one pass over `cases` ((workload, jobs) pairs); return the
    exact part of the summary: calls and failures per span, and counters."""
    tracer = tr.Tracer()
    tracer.install()
    try:
        for wl, jobs in cases:
            for i, job in enumerate(jobs):
                tracer.job_id = i
                _dt, reason, _, _ = run.run_job(wl, job, tracer)
                if reason is not None:
                    raise RuntimeError(f"{job.label}: {reason}")
    finally:
        tracer.restore()
    summ = tracer.summary()
    return {"spans": {k: (v["calls"], v["failed"])
                      for k, v in summ["spans"].items()},
            "counts": summ["counts"], "nspans": summ["nspans"]}


def check_counts_and_restore():
    dec, rad, multi = W.Decompose(), W.Radii(), W.MultiDecompose()
    cases = [(dec, dec.make_jobs(dec.default_seed)[:6]),
             (rad, rad.make_jobs(rad.default_seed)[:6]),
             (multi, multi.make_jobs(multi.default_seed)[:1])]
    before = tr.snapshot()
    probe = tr.Tracer()
    probe.install()
    replaced = sum(owner.__dict__[attr] is not obj
                   for owner, attr, obj in before)
    probe.restore()
    report("install replaces every target", replaced == len(before),
           f"{replaced}/{len(before)}")
    first = traced_counts(cases)
    second = traced_counts(cases)
    report("two traced passes give identical counts", first == second,
           f"{first['nspans']} spans, {len(first['counts'])} counters")
    report("every wrapped attribute restored", tr.restored_ok(before))
    needed = ("precision.mul.gauss", "precision.mul.laurent", "twisted.divmod",
              "factorize.attempt", "scalarfield.op", "polys.gcd",
              "diffmod.oracle", "linalg.solve", "linalg.det", "radii")
    missing = [n for n in needed if n not in first["spans"]]
    report("traced pass reaches every in-process layer", not missing,
           f"missing {missing}" if missing else "")


def check_gate():
    dec = W.Decompose()
    job = next(j for j in dec.make_jobs(dec.default_seed)
               if len(j.expected) > 1)
    good = dec.run(job)
    comps = list(good.components)
    wrong_key = dataclasses.replace(comps[0], key=comps[0].key + LogVal(1))
    report("decompose gate accepts a good result",
           dec.check(job, good) is None)
    report("decompose gate rejects a dropped component",
           dec.check(job, dataclasses.replace(
               good, components=tuple(comps[1:]))) is not None)
    report("decompose gate rejects a wrong key",
           dec.check(job, dataclasses.replace(
               good, components=(wrong_key, *comps[1:]))) is not None)
    bad_cert = dataclasses.replace(good.certificate, purity_ok=False)
    report("decompose gate rejects a failed certificate",
           dec.check(job, dataclasses.replace(
               good, certificate=bad_cert)) is not None)

    rad = W.Radii()
    rjob = rad.make_jobs(rad.default_seed)[0]
    prof, est, rep = rad.run(rjob)
    entries = tuple((lv + LogVal(1), m) for lv, m in prof.entries)
    report("radii gate rejects a wrong profile",
           rad.check(rjob, (dataclasses.replace(prof, entries=entries),
                            est, rep)) is not None)

    multi = W.MultiDecompose()
    mjob = multi.make_jobs(multi.default_seed)[0]
    mdec = multi.run(mjob)
    mcomps = list(mdec.components)
    swapped = dataclasses.replace(mcomps[0], key=mcomps[0].key[::-1])
    report("multi-decompose gate accepts a good result",
           multi.check(mjob, mdec) is None)
    report("multi-decompose gate rejects a wrong key",
           multi.check(mjob, dataclasses.replace(
               mdec, components=(swapped, *mcomps[1:]))) is not None)
    report("multi-decompose gate rejects a dropped component",
           multi.check(mjob, dataclasses.replace(
               mdec, components=tuple(mcomps[1:]))) is not None)

    cli = W.CliCold()
    cjob = next(j for j in cli.make_jobs(None) if j.label == "decompose")
    res = cli.run(cjob)
    report("cli-cold gate accepts the README job", cli.check(cjob, res) is None)
    comps = res.report["result"]["decomposition"]["components"]
    dropped = {**res.report, "result": {
        **res.report["result"],
        "decomposition": {"components": comps[1:]}}}
    report("cli-cold gate rejects a dropped component",
           cli.check(cjob, W.ChildResult(0, dropped, "")) is not None)
    report("cli-cold gate rejects a non-zero exit",
           cli.check(cjob, W.ChildResult(2, res.report, "")) is not None)

    class Raising:
        in_process = True

        def run(self, job):
            raise ArithmeticError("boom")

    _dt, reason, _, _ = run.run_job(Raising(), job)
    report("a job that raises counts as failed", reason is not None, reason)


def main() -> int:
    check_counts_and_restore()
    check_gate()
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())

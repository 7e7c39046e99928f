"""padic-dm benchmark: closed-loop workloads, one job at a time.

    python3 perfbench/run.py --workload NAME [--seed N] [--corpus-seed N]
                             [--seconds S] [--trace 0|1]

Workloads: decompose, multi-decompose, radii, cli-cold (see RATIONALE.md).
Each run builds a fixed job list from the corpus seed, then makes whole
passes over it, in an order drawn from --seed, until about --seconds of
work is done, and gates every job's output.  With --trace 0 it prints the
end-to-end metrics, times scaled to a reference host speed (hostspeed.py);
with --trace 1 it makes one untraced and one traced pass over the list
and prints the per-layer metrics.  The last stdout
line is the result object; the line before it holds the run metadata.
Traced runs also write their spans to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("decompose", "multi-decompose", "radii", "cli-cold")
HELD_OUT_SEEDS = {"decompose": 203, "radii": 203, "multi-decompose": 506}
SETUP_PROBES = 5
MIN_PASSES = 2      # every job is timed at two instants at least


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0,
                    help="seeds the job order of every pass")
    ap.add_argument("--corpus-seed", type=int, default=None,
                    help="seeds the generated modules (default: the "
                         "acceptance corpus of the workload)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


# -- running jobs ---------------------------------------------------------------


def run_job(wl, job, tracer=None, clock=None):
    """Time one job; returns (seconds, failure reason or None, result,
    start).  A tracer, if given, is on for the job only, not for the gate.
    Time a host clock spends sampling (in this process or the job's child)
    is not the job's."""
    gc.collect()    # so that no job pays for the garbage of the one before
    if tracer is not None:
        tracer.active = True
    paused = clock.paused if clock is not None else 0.0
    t0 = time.perf_counter()
    try:
        result = wl.run(job)
        reason = None
    except Exception as exc:  # a failing job is counted; the run goes on
        result, reason = None, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.active = False
    dt = time.perf_counter() - t0
    if clock is not None:
        dt -= clock.paused - paused
    if not wl.in_process and result is not None:
        dt -= result.paused
    if reason is None:
        reason = wl.check(job, result)
    return dt, reason, result, t0


def run_pass(wl, jobs, order, log, failures, tracer=None, clock=None,
             on_result=None):
    """Run the jobs in `order`; append (job index, seconds, start, host
    speed reported by the job's child or None) to `log`."""
    for i in order:
        if tracer is not None:
            tracer.job_id = i
        dt, reason, result, t0 = run_job(wl, jobs[i], tracer, clock)
        speed = None if wl.in_process or result is None else result.speed
        log.append((i, dt, t0, speed))
        if reason is not None:
            failures.append(f"{jobs[i].label}: {reason}")
        if on_result is not None:
            on_result(result)


def run_passes(wl, jobs, rng, seconds, clock):
    """Whole passes, each in a fresh seeded order: at least MIN_PASSES, and
    more while one more is predicted to end less than half a pass after
    `seconds`."""
    log: list = []
    failures: list = []
    passes = 0
    t0 = time.perf_counter()
    while True:
        order = list(range(len(jobs)))
        rng.shuffle(order)
        run_pass(wl, jobs, order, log, failures, clock=clock)
        passes += 1
        elapsed = time.perf_counter() - t0
        if (passes >= MIN_PASSES
                and elapsed * (passes + 0.5) / passes > seconds):
            return log, failures, passes


def setup_probe_times(args) -> tuple[list, list]:
    """Wall time of fresh processes from start to a ready job list, as
    measured and scaled by the host speed each probe measured itself."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload]
    if args.corpus_seed is not None:
        cmd += ["--corpus-seed", str(args.corpus_seed)]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        line = proc.stdout.readline().split()
        dt = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line[:1] != ["ready"]:
            raise RuntimeError("setup probe failed")
        speed, paused = float(line[1]), float(line[2])
        raw.append(dt)
        scaled.append((dt - paused) * speed)
    return scaled, raw


# -- metrics ----------------------------------------------------------------------


def job_stats(log, times, njobs) -> dict:
    """p50/p90 over the jobs of the list, each job timed by its mean over
    the passes (so every quantile averages several instants), and the
    total."""
    per_job: list = [[] for _ in range(njobs)]
    for (i, _, _, _), t in zip(log, times):
        per_job[i].append(t)
    means = [statistics.fmean(t) for t in per_job]
    p90 = (statistics.quantiles(means, n=10, method="inclusive")[-1]
           if len(means) > 1 else means[0])
    return {"p50": statistics.median(means), "p90": p90,
            "total": sum(times),
            "beyond_p90": sum(1 for t in means if t > p90)}


def end_to_end(wl, jobs, args, rng):
    if wl.in_process:
        with hostspeed.HostClock() as clock:
            log, failures, passes = run_passes(wl, jobs, rng, args.seconds,
                                               clock)
        scaled = [dt * clock.factor(t0, t0 + dt) for _, dt, t0, _ in log]
        speeds = [clock.speed()]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        log, failures, passes = run_passes(wl, jobs, rng, args.seconds, None)
        speeds = [speed or 1.0 for _, _, _, speed in log]
        scaled = [dt * sp for (_, dt, _, _), sp in zip(log, speeds)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup, setup_raw = setup_probe_times(args)
    passed = len(log) - len(failures)
    st = job_stats(log, scaled, len(jobs))
    raw = job_stats(log, [dt for _, dt, _, _ in log], len(jobs))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "job_s.p50": (st["p50"], "s"),
        "job_s.p90": (st["p90"], "s"),
        "jobs_per_s": (passed / st["total"], "1/s"),
        "peak_rss_mb": (peak_rss_mb / 1024, "MB"),
    }
    meta = {"passes": passes, "samples": len(log),
            "jobs_beyond_p90": st["beyond_p90"],
            "fail_frac": len(failures) / len(log),
            "host_speed": statistics.median(speeds),
            "unscaled": {"setup_s": statistics.median(setup_raw),
                         "job_s.p50": raw["p50"], "job_s.p90": raw["p90"],
                         "jobs_per_s": passed / raw["total"],
                         "timed_s": raw["total"]}}
    return metrics, len(log), failures, meta


def _self(spans, *names):
    return sum(spans[n]["self_s"] for n in names if n in spans)


def _calls(spans, *names):
    return sum(spans[n]["calls"] for n in names if n in spans)


def layer_metrics(summary, imports, jps_untraced, jps_traced) -> dict:
    """Per-layer metrics from a trace summary.  `*_s` are self times summed
    over the traced pass; counts are exact."""
    S, C = summary["spans"], summary["counts"]
    m: dict = {}
    for model in ("gauss", "laurent"):
        for op in ("mul", "inverse", "reduce"):
            name = f"precision.{op}.{model}"
            m[f"precision.{op}.calls.{model}"] = (_calls(S, name), "count")
            m[f"precision.{op}_s.{model}"] = (_self(S, name), "s")
        m[f"precision.self_s.{model}"] = (_self(
            S, *(f"precision.{op}.{model}"
                 for op in ("mul", "inverse", "reduce", "arith"))), "s")
        m[f"precision.mul.terms.{model}"] = (
            C.get(f"precision.mul.terms.{model}", 0), "count")
    m["twisted.mul.calls"] = (_calls(S, "twisted.mul"), "count")
    m["twisted.mul_s"] = (_self(S, "twisted.mul"), "s")
    m["twisted.divmod.calls"] = (_calls(S, "twisted.divmod"), "count")
    m["twisted.divmod_s"] = (_self(S, "twisted.divmod"), "s")
    m["twisted.norm_s"] = (_self(S, "twisted.norm"), "s")
    attempts = _calls(S, "factorize.attempt")
    attempt_failures = S.get("factorize.attempt", {}).get("failed", 0)
    m["factorize.hensel.steps"] = (C.get("factorize.hensel.steps", 0), "count")
    m["factorize.attempts"] = (attempts, "count")
    m["factorize.attempt_failures"] = (attempt_failures, "count")
    m["factorize.attempt_yield"] = (
        (attempts - attempt_failures) / attempts if attempts else 0.0, "ratio")
    m["factorize.decompose.calls"] = (_calls(S, "factorize.decompose"),
                                      "count")
    m["factorize.self_s"] = (_self(S, *(n for n in S
                                        if n.startswith("factorize."))), "s")
    m["scalarfield.ops"] = (_calls(S, "scalarfield.op"), "count")
    m["scalarfield.self_s"] = (_self(S, "scalarfield.op"), "s")
    m["polys.gcd.calls"] = (_calls(S, "polys.gcd"), "count")
    m["polys.gcd_s"] = (_self(S, "polys.gcd", "polys.divexact"), "s")
    m["diffmod.cyclic.attempts"] = (C.get("diffmod.cyclic.attempts", 0),
                                    "count")
    m["diffmod.cyclic_s"] = (_self(S, "diffmod.cyclic"), "s")
    m["diffmod.oracle.calls"] = (_calls(S, "diffmod.oracle"), "count")
    m["diffmod.oracle.steps"] = (C.get("diffmod.oracle.steps", 0), "count")
    m["diffmod.oracle_s"] = (_self(S, "diffmod.oracle"), "s")
    for op in ("solve", "det"):
        m[f"linalg.{op}.calls"] = (_calls(S, f"linalg.{op}"), "count")
    for op in ("solve", "det", "matmul"):
        m[f"linalg.{op}_s"] = (_self(S, f"linalg.{op}"), "s")
    m["radii.self_s"] = (_self(S, "radii"), "s")
    m["import.padic_dm_s"] = (imports["padic_dm_s"], "s")
    m["import.sympy_s"] = (imports["sympy_s"], "s")
    m["cli.parse_s"] = (_self(S, "cli.parse"), "s")
    m["cli.run_s"] = (_self(S, "cli.run"), "s")
    m["cli.render_s"] = (_self(S, "cli.main"), "s")
    m["grammar.calls"] = (_calls(S, "grammar"), "count")
    m["grammar.self_s"] = (_self(S, "grammar"), "s")
    m["trace.spans"] = (summary["nspans"], "count")
    m["trace.jobs_per_s.untraced"] = (jps_untraced, "1/s")
    m["trace.jobs_per_s.traced"] = (jps_traced, "1/s")
    m["trace.overhead.jobs_per_s"] = (jps_traced - jps_untraced, "1/s")
    return m


def traced(wl, jobs, args, rng, imports):
    """One untraced pass, then the same pass traced."""
    import tracer as tr

    order = list(range(len(jobs)))
    rng.shuffle(order)
    failures: list = []
    untraced: list = []
    run_pass(wl, jobs, order, untraced, failures)
    OUT_DIR.mkdir(exist_ok=True)
    traced_log: list = []
    if wl.in_process:
        tracer = tr.Tracer()
        tracer.install()
        try:
            run_pass(wl, jobs, order, traced_log, failures, tracer)
        finally:
            tracer.restore()
        tracer.write_spans(OUT_DIR / f"{args.workload}.spans")
        summary = tracer.summary()
    else:
        summaries: list = []

        def keep(res):
            if res is not None and res.returncode == 0:
                summaries.append(json.loads(res.stderr.splitlines()[-1]))

        wl.traced = True
        wl.spans_dir = OUT_DIR
        run_pass(wl, jobs, order, traced_log, failures, on_result=keep)
        summary = tr.merge_summaries(summaries)
        imports = {k: sum(s["import"][k] for s in summaries)
                   for k in ("padic_dm_s", "sympy_s")}
    n = len(jobs)
    untraced_s = sum(dt for _, dt, _, _ in untraced)
    traced_s = sum(dt for _, dt, _, _ in traced_log)
    metrics = layer_metrics(summary, imports, n / untraced_s, n / traced_s)
    meta = {"traced_jobs": n, "untraced_s": untraced_s, "traced_s": traced_s,
            "factorize.attempt_yield.base": metrics["factorize.attempts"][0]}
    return metrics, 2 * n, failures, meta


# -- entry point --------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    probe_clock = hostspeed.HostClock().__enter__() if args.setup_probe else None
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import sympy
        t_sympy = time.perf_counter()
        import padic_dm
    except ImportError as exc:
        print(f"perfbench: cannot import padic_dm from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    imports = {"sympy_s": t_sympy - t0,
               "padic_dm_s": time.perf_counter() - t0}
    if not Path(padic_dm.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: padic_dm imported from {padic_dm.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    corpus_seed = (args.corpus_seed if args.corpus_seed is not None
                   else wl.default_seed)
    jobs = wl.make_jobs(corpus_seed)
    if args.setup_probe:
        probe_clock.__exit__(None, None, None)
        print("ready", probe_clock.speed(), probe_clock.paused, flush=True)
        return 0
    # keep the job list and the loaded modules out of every later
    # collection, so collector pauses depend on the job's own garbage
    gc.freeze()

    rng = random.Random(args.seed)
    if args.trace:
        metrics, attempted, failures, meta = traced(wl, jobs, args, rng,
                                                    imports)
    else:
        metrics, attempted, failures, meta = end_to_end(wl, jobs, args, rng)
    meta.update({
        "workload": args.workload, "trace": args.trace,
        "python": sys.version.split()[0], "sympy": sympy.__version__,
        "git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed, "corpus_seed": corpus_seed,
        "held_out_corpus_seed": HELD_OUT_SEEDS.get(args.workload),
        "job_list_len": len(jobs), "seconds": args.seconds,
        "failures": failures[:10],
    })
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

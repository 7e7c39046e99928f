"""One `padic-dm` CLI job in a fresh process, as the `cli-cold` workload
runs it.

    python3 perfbench/cli_child.py --clock CLI_ARG...
    python3 perfbench/cli_child.py --trace SPANS_PATH CLI_ARG...

Prints the CLI report on stdout and exits with the CLI's exit code, like
`python -m padic_dm.cli`.  The last line of stderr is a JSON object:
with --clock, the host speed and the seconds its sampling took (see
hostspeed.py); with --trace, the trace summary and the import times,
and the spans are written to SPANS_PATH.
"""

import json
import sys
import time

import hostspeed

clock = hostspeed.HostClock().__enter__() if sys.argv[1] == "--clock" else None
t_start = time.perf_counter()
import sympy  # noqa: E402  (timed on its own: padic_dm imports all of it)
t_sympy = time.perf_counter()
import padic_dm.cli  # noqa: E402
t_padic = time.perf_counter()


def run_clocked(argv) -> int:
    try:
        code = padic_dm.cli.main(argv)
    finally:
        clock.__exit__(None, None, None)
    sys.stdout.flush()
    print(json.dumps({"speed": clock.speed(), "paused": clock.paused}),
          file=sys.stderr)
    return code


def run_traced(spans_path, argv) -> int:
    import tracer as tr

    tracer = tr.Tracer()
    tracer.install()
    tracer.job_id = 0
    tracer.active = True
    try:
        code = padic_dm.cli.main(argv)
    finally:
        tracer.active = False
        tracer.restore()
    sys.stdout.flush()
    tracer.write_spans(spans_path)
    summary = tracer.summary()
    summary["import"] = {"sympy_s": t_sympy - t_start,
                         "padic_dm_s": t_padic - t_start}
    print(json.dumps(summary), file=sys.stderr)
    return code


if __name__ == "__main__":
    if clock is not None:
        sys.exit(run_clocked(sys.argv[2:]))
    sys.exit(run_traced(sys.argv[2], sys.argv[3:]))

"""Every binding the benchmark's span tracer wraps must exist.

`perfbench/tracer.py` replaces module globals and class attributes by name;
a rename in the package would otherwise surface only as a KeyError in a
traced benchmark run.  The tracer is loaded by path without writing
bytecode next to it.
"""

import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_exist():
    tracer = types.ModuleType("perfbench_tracer")
    tracer.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer.__dict__)
    targets = tracer.targets()
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets
               if attr not in owner.__dict__]
    assert missing == []

"""Span tracing from outside the library.

`Tracer.install()` replaces the public functions of each layer, as bound
in every module that calls them (e.g. both `twisted.divmod_right` and
`factorize.divmod_right`), and the arithmetic methods of `ApproxScalar`
and `Scalar`, with wrappers that record one span per call: name, start,
end, parent span and job id.  Spans live in flat arrays in memory and are
written out by `write_spans` when the run ends.  `restore()` puts every
original object back.

Self time of a span is its duration minus the durations of its direct
child spans.  Code the tracer does not wrap (e.g. `TwistedPoly.__add__`)
is charged to the nearest wrapped caller.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter

from padic_dm import (cli, diffmod, factorize, grammar, linalg, polys,
                      precision, radii, twisted)
from padic_dm.precision import ApproxScalar
from padic_dm.scalarfield import Scalar

MODELS = ("gauss", "laurent")

_APPROX_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
               "__truediv__", "__rtruediv__", "truncate_err", "derive", "lift")
_SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
               "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
               "__pow__", "inverse", "derive")

# (owner, attribute, span name).  A span name ending in ".<model>" is split
# by the field kind of the first argument.
SPANS = (
    [(ApproxScalar, "__mul__", "precision.mul.<model>"),
     (ApproxScalar, "__rmul__", "precision.mul.<model>"),
     (ApproxScalar, "inverse", "precision.inverse.<model>"),
     (precision, "reduce_scalar", "precision.reduce.<model>")]
    + [(ApproxScalar, op, "precision.arith.<model>") for op in _APPROX_OPS]
    + [(Scalar, op, "scalarfield.op") for op in _SCALAR_OPS]
    + [(polys, "p_gcd", "polys.gcd"),
       (polys, "p_divexact", "polys.divexact"),
       (twisted, "mul", "twisted.mul"),
       (factorize, "mul", "twisted.mul"),
       (twisted, "divmod_right", "twisted.divmod"),
       (twisted, "divmod_left", "twisted.divmod"),
       (factorize, "divmod_right", "twisted.divmod"),
       (factorize, "divmod_left", "twisted.divmod"),
       (twisted, "pi_norm", "twisted.norm"),
       (factorize, "pi_norm", "twisted.norm"),
       (twisted, "newton_polygon", "twisted.norm"),
       (radii, "newton_polygon", "twisted.norm"),
       (linalg, "solve", "linalg.solve"),
       (linalg, "solve_in_span", "linalg.solve"),
       (linalg, "determinant", "linalg.det"),
       (linalg, "mat_mul", "linalg.matmul"),
       (diffmod, "cyclic_data", "diffmod.cyclic"),
       (radii, "cyclic_data", "diffmod.cyclic"),
       (diffmod, "spectral_radius_bruteforce", "diffmod.oracle"),
       (radii, "spectral_radius_bruteforce", "diffmod.oracle"),
       (factorize, "spectral_radius_bruteforce", "diffmod.oracle"),
       (cli, "spectral_radius_bruteforce", "diffmod.oracle"),
       (radii, "profile", "radii"),
       (factorize, "profile", "radii"),
       (cli, "profile", "radii"),
       (radii, "radii_from_polygon", "radii"),
       (factorize, "radii_from_polygon", "radii"),
       (radii, "check_rationality", "radii"),
       (cli, "check_rationality", "radii"),
       (factorize, "decompose", "factorize.decompose"),
       (cli, "decompose", "factorize.decompose"),
       (factorize, "_decompose_from_cyclic", "factorize.attempt"),
       (factorize, "_hensel_right", "factorize.hensel"),
       (factorize, "_hensel_left", "factorize.hensel"),
       (factorize, "multi_decompose", "factorize.multi"),
       (cli, "multi_decompose", "factorize.multi"),
       (factorize, "_multi_rec", "factorize.multi"),
       (factorize, "_restrict", "factorize.restrict"),
       (cli, "parse_operator", "grammar"),
       (cli, "parse_matrix", "grammar"),
       (cli, "matrix_str", "grammar"),
       (grammar, "parse_scalar", "grammar"),
       (cli, "parse_job", "cli.parse"),
       (cli, "run", "cli.run"),
       (cli, "main", "cli.main")]
)

# Generator functions: one span per resumption.
GEN_SPANS = (
    (diffmod, "cyclic_presentations", "diffmod.cyclic"),
    (factorize, "cyclic_presentations", "diffmod.cyclic"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.failed = bytearray()
        self.counts: Counter = Counter()
        self.job_id = -1
        self.active = False
        self._stack = [-1]
        self._saved: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- span recording ----------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, failed: bool):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.failed[idx] = 1

    def _namer(self, name: str):
        if name.endswith(".<model>"):
            stem = name[:-len("<model>")]
            ids = {m: self._id(stem + m) for m in MODELS}
            return lambda args: ids[args[0].field.kind]
        nid = self._id(name)
        return lambda args: nid

    def _span_wrapper(self, orig, name: str):
        namer = self._namer(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            idx = tracer._open(namer(args))
            try:
                out = orig(*args, **kwargs)
            except BaseException:
                tracer._close(idx, True)
                raise
            tracer._close(idx, False)
            return out
        return traced

    def _gen_wrapper(self, orig, name: str):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            it = orig(*args, **kwargs)
            try:
                while True:
                    idx = tracer._open(nid) if tracer.active else None
                    try:
                        item = next(it)
                    except StopIteration:
                        if idx is not None:
                            tracer._close(idx, False)
                        return
                    except BaseException:
                        if idx is not None:
                            tracer._close(idx, True)
                        raise
                    if idx is not None:
                        tracer._close(idx, False)
                    yield item
            finally:
                it.close()
        return traced

    def _counted(self, orig, counter: str, amount):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                tracer.counts[counter] += amount(args, kwargs)
            return orig(*args, **kwargs)
        return counted

    def _counted_gen(self, orig, counter: str):
        tracer = self

        def counted(*args, **kwargs):
            for item in orig(*args, **kwargs):
                if tracer.active:
                    tracer.counts[counter] += 1
                yield item
        return counted

    def _conv_terms(self, orig):
        """Count len(a) * len(b) of each convolution made directly by an
        `ApproxScalar` product."""
        tracer = self
        mul_ids = {self._id(f"precision.mul.{m}"): f"precision.mul.terms.{m}"
                   for m in MODELS}

        def counted(a, b, *rest):
            if tracer.active:
                top = tracer._stack[-1]
                if top >= 0:
                    key = mul_ids.get(tracer.name_id[top])
                    if key is not None:
                        tracer.counts[key] += len(a) * len(b)
            return orig(a, b, *rest)
        return counted

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper):
        orig = owner.__dict__[attr]
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every binding in SPANS and GEN_SPANS, plus the counters."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, attr, name in SPANS:
            orig = owner.__dict__[attr]
            key = (id(orig), name)
            if key not in wrappers:
                wrappers[key] = self._span_wrapper(orig, name)
            wrapper = wrappers[key]
            if owner is factorize and attr.startswith("divmod_"):
                wrapper = self._counted(wrapper, "factorize.hensel.steps",
                                        lambda a, k: 1)
            if attr == "spectral_radius_bruteforce":
                wrapper = self._counted(
                    wrapper, "diffmod.oracle.steps",
                    lambda a, k: k["kmax"] if "kmax" in k else a[2])
            self._replace(owner, attr, wrapper)
        for owner, attr, name in GEN_SPANS:
            self._replace(owner, attr,
                          self._gen_wrapper(owner.__dict__[attr], name))
        self._replace(diffmod, "_candidate_schedule",
                      self._counted_gen(diffmod._candidate_schedule,
                                        "diffmod.cyclic.attempts"))
        self._replace(precision, "_conv", self._conv_terms(precision._conv))

    def restore(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, failed calls, total and self seconds; plus
        the counters."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        spans: dict = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            s = spans.get(name)
            if s is None:
                s = spans[name] = {"calls": 0, "failed": 0, "total_s": 0.0,
                                   "self_s": 0.0}
            s["calls"] += 1
            s["failed"] += self.failed[i]
            s["total_s"] += dur[i]
            s["self_s"] += dur[i] - child[i]
        return {"spans": spans, "counts": dict(self.counts), "nspans": n}

    def write_spans(self, path):
        """One JSON header line, then the raw arrays in header order."""
        header = {"names": self.names, "n": len(self.start),
                  "arrays": [["name_id", "H"], ["start", "d"], ["end", "d"],
                             ["parent", "q"], ["job", "q"], ["failed", "B"]]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_id, self.start, self.end, self.parent,
                        self.job):
                arr.tofile(fh)
            fh.write(bytes(self.failed))


def targets() -> list:
    """Every (owner, attribute) that `Tracer.install` replaces."""
    return ([(o, a) for o, a, _ in SPANS] + [(o, a) for o, a, _ in GEN_SPANS]
            + [(diffmod, "_candidate_schedule"), (precision, "_conv")])


def snapshot() -> list:
    return [(owner, attr, owner.__dict__[attr]) for owner, attr in targets()]


def restored_ok(originals) -> bool:
    """True when every (owner, attr, object) in `originals` is in place."""
    return all(owner.__dict__[attr] is obj for owner, attr, obj in originals)


def merge_summaries(summaries) -> dict:
    spans: dict = {}
    counts: Counter = Counter()
    nspans = 0
    for summ in summaries:
        nspans += summ["nspans"]
        counts.update(summ["counts"])
        for name, s in summ["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "failed": 0,
                                          "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += s[k]
    return {"spans": spans, "counts": dict(counts), "nspans": nspans}

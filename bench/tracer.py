"""In-memory span tracer wrapped around qsdp's public functions from outside.

Each wrapper replaces a name where qsdp looks it up at call time (a module
global or a class attribute), so no file of the package changes.  A span is
[trace_id, name, start, end, parent_index]; one trace id per instance.  Self
time is a span's duration minus the durations of its children (spans nest
strictly, since one thread runs the workload).  Functions that are called
too often for a span each (constructions, inner products) are only counted.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (layer name, owner path, attribute): the owner is a module or a class.
TIMED = (
    ("problem.validate", "qsdp.ipm", "require_independent"),
    ("problem.apply", "qsdp.problem:ConeProblem", "apply"),
    ("problem.adjoint", "qsdp.problem:ConeProblem", "adjoint"),
    ("ipm.solve", "qsdp.ipm", "solve"),
    ("ipm.newton_direction", "qsdp.ipm", "newton_direction"),
    ("ipm.residuals", "qsdp.ipm", "residuals"),
    ("ipm.step_length", "qsdp.ipm", "step_length"),
    ("ipm.cold_start", "qsdp.ipm", "cold_start"),
    ("ipm.corrector_nu", "qsdp.ipm", "corrector_nu"),
    ("ipm.split_free", "qsdp.ipm", "split_free"),
    ("modeling.compile", "qsdp.modeling:Model", "compile"),
    ("modeling.recover", "qsdp.modeling:CompiledModel", "recover"),
    ("npa.build_moment_model", "qsdp.npa", "build_moment_model"),
    ("quantum.dps_test", "qsdp.quantum", "dps_test"),
    ("quantum.channel_feasibility", "qsdp.quantum", "channel_feasibility"),
    ("seesaw.sweep", "qsdp.seesaw:BellSeesawTask", "sweep"),
    ("seesaw.sweep", "qsdp.seesaw:PamSeesawTask", "sweep"),
    ("sdpa.write", "qsdp.sdpa", "write_sdpa"),
    ("sdpa.parse", "qsdp.sdpa", "parse_sdpa"),
    ("report.dimacs_errors", "qsdp.report", "dimacs_errors"),
)
KEPT = ("modeling.compile", "npa.build_moment_model", "sdpa.write")  # return values kept for layer_counts
COUNTED = (
    ("blockmat.symblockmat_new", "qsdp.blockmat:SymBlockMat", "__init__"),
    ("blockmat.frobenius_inner", "qsdp.blockmat", "frobenius_inner"),
    ("blockmat.frobenius_inner", "qsdp.problem", "frobenius_inner"),
    ("blockmat.frobenius_inner", "qsdp.ipm", "frobenius_inner"),
    ("blockmat.frobenius_inner", "qsdp.report", "frobenius_inner"),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.trace_id = -1
        self._stack: list[int] = []
        self.results: dict[str, list] = {}  # return values kept for statistics

    def timed(self, name: str, fn, keep: bool = False):
        spans, stack = self.spans, self._stack
        kept = self.results.setdefault(name, []) if keep else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([self.trace_id, name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            spans[idx][2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][3] = perf_counter()
                stack.pop()
            if kept is not None:
                kept.append(result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def instance(self, name: str):
        """Root span of one instance, under a fresh trace id."""
        self.trace_id += 1
        idx = len(self.spans)
        self.spans.append([self.trace_id, f"instance:{name}", perf_counter(), 0.0, -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][3] = perf_counter()
            self._stack.pop()

    def install(self):
        """Replace every traced name by its wrapper; raises if a name is gone."""
        for name, path, attr in TIMED:
            owner = _owner(path)
            setattr(owner, attr, self.timed(name, getattr(owner, attr), keep=name in KEPT))
        for name, path, attr in COUNTED:
            owner = _owner(path)
            setattr(owner, attr, self.counted(name, getattr(owner, attr)))

    def layers(self) -> dict[str, dict]:
        """Per layer name: calls, self seconds and total (inclusive) seconds."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        out: dict[str, dict] = {}
        for s, c in zip(self.spans, child):
            d = out.setdefault(s[1], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            d["calls"] += 1
            d["total_s"] += s[3] - s[2]
            d["self_s"] += s[3] - s[2] - c
        for name, n in self.counts.items():
            out[name] = {"calls": n}
        return out

    def dump(self, path):
        """Write every span as [trace_id, name, start, end, parent]."""
        with open(path, "w") as fh:
            json.dump({"fields": ["trace_id", "name", "start", "end", "parent"], "spans": self.spans}, fh)

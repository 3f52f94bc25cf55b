"""Span recorder installed from outside around carleman_lab's public functions.

``Recorder.install`` wraps the functions listed in ``install`` in every
carleman_lab module that holds a reference to them, and ``uninstall`` puts the
originals back.  A span is ``(id, name, start, end, parent, thread)``.  Spans
started on a pool thread with nothing open on that thread take as parent the
innermost span open on the thread that created the recorder, which is the
call that started the pool.

``layer_stats`` turns spans into per-layer count, busy time (sum of
durations, which exceeds wall time when pool threads overlap), covered time
(length of the union of the intervals) and self time (duration minus the part
covered by the span's children).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict


class Recorder:
    def __init__(self):
        self._local = threading.local()
        self._main_stack = self._stack()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self):
        self.spans: list[tuple] = []
        self.node_steps: list[int] = []
        self.sane: list[bool] = []

    def record(self) -> dict:
        return {"spans": self.spans, "node_steps": self.node_steps, "sane": self.sane}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            try:
                parent = stack[-1] if stack else self._main_stack[-1]
            except IndexError:
                parent = 0
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent, threading.get_ident()))

        return wrapper

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap_method(self, cls, attr: str, wrapper):
        self._set(cls, attr, wrapper(getattr(cls, attr)))

    def _wrap_function(self, module, attr: str, wrapper):
        """Replace the function in every carleman_lab module that references it."""
        orig = getattr(module, attr)
        new = wrapper(orig)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "carleman_lab":
                continue
            for name in [n for n, v in vars(mod).items() if v is orig]:
                self._set(mod, name, new)

    def install(self):
        import sympy

        from carleman_lab import cli, cones, fields, identities, propagation, solver, weights

        span = self.span
        named = lambda name: (lambda fn: span(name, fn))

        def noise(fn):
            traced = span("fields.noise", fn)

            def wrapper(*args, **kwargs):
                path = traced(*args, **kwargs)
                self.sane.append(bool(path.passes_mean_sanity))
                return path

            return wrapper

        def steps(fn):
            def wrapper(u, *args, **kwargs):
                self.node_steps.append(int(u.size))
                return fn(u, *args, **kwargs)

            return wrapper

        self._wrap_method(fields.AnalyticFn, "__init__", named("fields.fn_build"))
        self._wrap_method(fields.AnalyticFn, "d", named("fields.eval"))
        self._wrap_method(fields.AnalyticFn, "jet2", named("fields.eval"))
        # the evaluator cache compiles each (expression, multi-index) with
        # sympy.diff and then exactly one sympy.lambdify
        self._set(sympy, "diff", span("fields.compile.diff", sympy.diff))
        self._set(sympy, "lambdify", span("fields.compile.lambdify", sympy.lambdify))
        self._wrap_function(fields, "sample_brownian", noise)
        self._wrap_method(weights.WeightFamily, "__init__", named("weights.family_build"))
        self._wrap_method(weights.WeightFamily, "quantities", named("weights.quantities"))
        self._wrap_function(weights, "eval_D", named("weights.eval_D"))
        self._wrap_function(identities, "assemble", named("identities.assemble"))
        self._wrap_function(identities, "qv_check", named("identities.qv_check"))
        self._wrap_function(solver, "solve", named("solver.solve"))
        self._wrap_function(solver, "step_arrays", steps)
        self._wrap_function(propagation, "run_propagation", named("propagation.run"))
        self._wrap_function(cones, "sweep_cover", named("cones.sweep_cover"))
        self._wrap_function(cli, "validate_config", named("cli.validate"))
        self._wrap_function(cli, "emit_csv", named("cli.emit"))
        self._wrap_function(cli, "run", named("cli.run"))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def layer_stats(spans) -> dict:
    """{name: {"count", "s", "covered_s", "self_s"}} for a list of spans."""
    children = defaultdict(list)
    for _, _, t0, t1, parent, _ in spans:
        children[parent].append((t0, t1))
    stats = defaultdict(lambda: {"count": 0, "s": 0.0, "self_s": 0.0, "intervals": []})
    for sid, name, t0, t1, _, _ in spans:
        st = stats[name]
        st["count"] += 1
        st["s"] += t1 - t0
        clipped = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ()) if b > t0 and a < t1]
        st["self_s"] += (t1 - t0) - _union_length(clipped)
        st["intervals"].append((t0, t1))
    for st in stats.values():
        st["covered_s"] = _union_length(st.pop("intervals"))
    return dict(stats)

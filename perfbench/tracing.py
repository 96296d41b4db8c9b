"""Span tracing from outside the package, and the per-layer metrics.

``Tracer.install`` wraps the public functions of each layer module (and the
public methods of the archive and constants-table classes) and rebinds every
name that refers to them in every ``mhdgevrey`` module, because the modules
import each other's names with ``from .x import f``.  A span records its
name, start, end, parent span and the run id; spans stay in memory and are
written out once, when the run ends.  Only calls made inside an operation
root (``Tracer.root``) are recorded, so the benchmark's own checks add no
spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import os
import statistics
import sys
from time import perf_counter

LAYERS = ("solver", "spectral", "transform", "bounds", "constants",
          "archive", "radius", "cli")
# Public methods are wrapped on these classes too (span name: layer.method).
CLASSES = {"archive": ("TraceArchive",), "constants": ("ConstantsTable",)}
# Cache lookups and formatting called from every norm; wrapping them would
# mostly measure the wrapper.
SKIP = {"spectral.geometry", "spectral.fmt_s"}

NAME, START, END, PARENT, ITER, ATTR = range(6)


def _path_attr(args, kwargs, result):
    return str(args[0] if args else kwargs["path"])


def _size_attr(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


# Counts recorded at the boundary, outside the span's own interval.
ATTR_HOOKS = {"archive.checkpoint_load": _path_attr,
              "archive.checkpoint_save": _size_attr}


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent, iteration, attr]
        self.iteration = -1
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        span = [name, perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, self.iteration, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[END] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name):
        span = self._open("op." + name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        hook = ATTR_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                span[ATTR] = hook(args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module("mhdgevrey." + layer)
            for attr, obj in vars(mod).items():
                name = "%s.%s" % (layer, attr)
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    wrapped[id(obj)] = (obj, self._wrap(name, obj))
            for cls_name in CLASSES.get(layer, ()):
                self._install_methods(layer, getattr(mod, cls_name))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "mhdgevrey" and not mod_name.startswith("mhdgevrey."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def _install_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = "%s.%s" % (layer, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(name, raw)
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path, header):
        with gzip.open(path, "wt") as f:
            f.write(json.dumps(dict(header, run_id=self.run_id)) + "\n")
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                    "end": s[END], "parent": s[PARENT],
                                    "iteration": s[ITER], "run": self.run_id,
                                    "attr": s[ATTR]}) + "\n")


# -- derived metrics ----------------------------------------------------------

# Per-layer metric name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "solver.step.calls": "count",
    "solver.step.ms": "ms",
    "solver.nonlinear_rhs_fast.calls": "count",
    "solver.nonlinear_rhs_fast.ms": "ms",
    "solver.full_rhs.calls": "count",
    "solver.simulate.self_s": "s",
    "solver.second_time_derivative.calls": "count",
    "solver.second_time_derivative.ms": "ms",
    "spectral.norm.calls": "count",
    "spectral.norm.s": "s",
    "spectral.lq_norm.s": "s",
    "transform.solve_phi.calls": "count",
    "transform.solve_phi.ms": "ms",
    "transform.solve_phi.gevrey_per_call": "count",
    "transform.sigma_p.calls": "count",
    "transform.sigma_p.ms": "ms",
    "bounds.verify_integral.calls": "count",
    "bounds.verify_integral.s": "s",
    "bounds.verify_pointwise.calls": "count",
    "bounds.verify_pointwise.s": "s",
    "bounds.standard_sweep.s": "s",
    "constants.estimate_Cs.calls": "count",
    "constants.estimate_Cs.s": "s",
    "constants.reestimate.calls": "count",
    "archive.checkpoint_save.calls": "count",
    "archive.checkpoint_save.ms": "ms",
    "archive.checkpoint_save.bytes": "B",
    "archive.append.calls": "count",
    "archive.append.s": "s",
    "archive.checkpoint_load.calls": "count",
    "archive.checkpoint_load.ms": "ms",
    "archive.checkpoint_load.useful_ratio": "ratio",
    "radius.two_resolution_psi.s": "s",
    "radius.decay_fit.ms": "ms",
    "trace.overhead_s": "s",
}

NORMS = ("spectral.sobolev_norm", "spectral.gevrey_norm", "spectral.wiener_norm")


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    return total + (cur_e - cur_s if cur_e is not None else 0.0)


class SpanIndex:
    """Spans grouped by name, with children lists, for one traced run."""

    def __init__(self, spans, iterations):
        self.spans = spans
        self.iterations = max(1, iterations)
        self.by_name = {}
        self.children = [[] for _ in spans]
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[NAME], []).append(i)
            if s[PARENT] >= 0:
                self.children[s[PARENT]].append(i)

    def _ancestors(self, i):
        p = self.spans[i][PARENT]
        while p >= 0:
            yield p
            p = self.spans[p][PARENT]

    def _outermost(self, name):
        """Spans of `name` not nested in another span of the same name."""
        return [i for i in self.by_name.get(name, ())
                if all(self.spans[a][NAME] != name for a in self._ancestors(i))]

    def calls(self, *names):
        return sum(len(self.by_name.get(n, ())) for n in names) / self.iterations

    def total_s(self, *names):
        return sum(self.spans[i][END] - self.spans[i][START]
                   for n in names for i in self._outermost(n)) / self.iterations

    def median_ms(self, name):
        d = [self.spans[i][END] - self.spans[i][START] for i in self.by_name.get(name, ())]
        return 1e3 * statistics.median(d) if d else 0.0

    def self_s(self, i, child_filter=None):
        kids = [self.spans[c] for c in self.children[i]
                if child_filter is None or child_filter(self.spans[c][NAME])]
        s = self.spans[i]
        return (s[END] - s[START]) - _covered([(k[START], k[END]) for k in kids])

    def self_by_name(self):
        out = {}
        for name, idx in self.by_name.items():
            out[name] = sum(self.self_s(i) for i in idx) / self.iterations
        return out

    def simulate_self_s(self):
        """simulate minus its step and archive children: diagnostic rows and loop."""
        keep = lambda n: n == "solver.step" or n.startswith("archive.")  # noqa: E731
        return sum(self.self_s(i, keep)
                   for i in self._outermost("solver.simulate")) / self.iterations

    def gevrey_per_solve(self):
        solves = self.by_name.get("transform.solve_phi", ())
        if not solves:
            return 0.0
        inside = sum(1 for i in self.by_name.get("spectral.gevrey_norm", ())
                     if any(self.spans[a][NAME] == "transform.solve_phi"
                            for a in self._ancestors(i)))
        return inside / len(solves)

    def useful_load_ratio(self):
        """Distinct checkpoint files over loads, per iteration, pooled."""
        loads = self.by_name.get("archive.checkpoint_load", ())
        if not loads:
            return 0.0
        distinct = {(self.spans[i][ITER], self.spans[i][ATTR]) for i in loads}
        return len(distinct) / len(loads)

    def mean_attr(self, name):
        vals = [self.spans[i][ATTR] for i in self.by_name.get(name, ())]
        return sum(vals) / len(vals) if vals else 0.0


def per_layer(index: SpanIndex, overhead_s: float) -> dict:
    ix = index
    vals = {
        "solver.step.calls": ix.calls("solver.step"),
        "solver.step.ms": ix.median_ms("solver.step"),
        "solver.nonlinear_rhs_fast.calls": ix.calls("solver.nonlinear_rhs_fast"),
        "solver.nonlinear_rhs_fast.ms": ix.median_ms("solver.nonlinear_rhs_fast"),
        "solver.full_rhs.calls": ix.calls("solver.full_rhs"),
        "solver.simulate.self_s": ix.simulate_self_s(),
        "solver.second_time_derivative.calls": ix.calls("solver.second_time_derivative"),
        "solver.second_time_derivative.ms": ix.median_ms("solver.second_time_derivative"),
        "spectral.norm.calls": ix.calls(*NORMS),
        "spectral.norm.s": ix.total_s(*NORMS),
        "spectral.lq_norm.s": ix.total_s("spectral.lq_norm"),
        "transform.solve_phi.calls": ix.calls("transform.solve_phi"),
        "transform.solve_phi.ms": ix.median_ms("transform.solve_phi"),
        "transform.solve_phi.gevrey_per_call": ix.gevrey_per_solve(),
        "transform.sigma_p.calls": ix.calls("transform.sigma_p"),
        "transform.sigma_p.ms": ix.median_ms("transform.sigma_p"),
        "bounds.verify_integral.calls": ix.calls("bounds.verify_integral"),
        "bounds.verify_integral.s": ix.total_s("bounds.verify_integral"),
        "bounds.verify_pointwise.calls": ix.calls("bounds.verify_pointwise"),
        "bounds.verify_pointwise.s": ix.total_s("bounds.verify_pointwise"),
        "bounds.standard_sweep.s": ix.total_s("bounds.standard_sweep"),
        "constants.estimate_Cs.calls": ix.calls("constants.estimate_Cs"),
        "constants.estimate_Cs.s": ix.total_s("constants.estimate_Cs"),
        "constants.reestimate.calls": ix.calls("constants.reestimate"),
        "archive.checkpoint_save.calls": ix.calls("archive.checkpoint_save"),
        "archive.checkpoint_save.ms": ix.median_ms("archive.checkpoint_save"),
        "archive.checkpoint_save.bytes": ix.mean_attr("archive.checkpoint_save"),
        "archive.append.calls": ix.calls("archive.append"),
        "archive.append.s": ix.total_s("archive.append"),
        "archive.checkpoint_load.calls": ix.calls("archive.checkpoint_load"),
        "archive.checkpoint_load.ms": ix.median_ms("archive.checkpoint_load"),
        "archive.checkpoint_load.useful_ratio": ix.useful_load_ratio(),
        "radius.two_resolution_psi.s": ix.total_s("radius.two_resolution_psi"),
        "radius.decay_fit.ms": ix.median_ms("radius.decay_fit"),
        "trace.overhead_s": overhead_s,
    }
    return {name: vals[name] for name in PER_LAYER}

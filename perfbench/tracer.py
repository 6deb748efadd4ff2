"""Span and counter recorders wrapped around finsler4's public entry points.

Everything is installed from outside ``src/``: a wrapper replaces the
original function at every module-level binding of it in the package, so
names imported with ``from .jets import partial_extract`` are caught as
well as ``metrics.eval_L``.  ``PointEval``'s cached properties are wrapped
by replacing their ``.func``.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

MODULES = ("finsler4", "finsler4.jets", "finsler4.metrics", "finsler4.exprdsl",
           "finsler4.geometry", "finsler4.frame", "finsler4.conformal",
           "finsler4.classify", "finsler4.oracle", "finsler4.cli")

# (module, function, span name); recursive functions get one span per
# outermost call, so their own recursion is not split into child spans
SPANS = (
    ("finsler4.metrics", "eval_L", "metrics.eval_L"),
    ("finsler4.metrics", "sample_domain", "metrics.sample_domain"),
    ("finsler4.exprdsl", "eval_expr", "exprdsl.eval_expr"),
    ("finsler4.frame", "scalar_profile", "frame.scalar_profile"),
    ("finsler4.conformal", "sigma_components", "conformal.sigma_components"),
    ("finsler4.conformal", "invariance_check", "conformal.invariance_check"),
    ("finsler4.conformal", "evaluate_point", "conformal.evaluate_point"),
    ("finsler4.classify", "classify_metric", "classify.classify_metric"),
    ("finsler4.classify", "theorem_crosscheck", "classify.crosscheck"),
    ("finsler4.oracle", "oracle_tensors", "oracle.oracle_tensors"),
    ("finsler4.cli", "dumps", "cli.dumps"),
)
RECURSIVE = {"exprdsl.eval_expr", "cli.dumps"}
# no spans inside these: the oracle's thousands of float evaluations of L
# are its own work, and one span each would swamp the trace
OPAQUE = "oracle.oracle_tensors"

COUNTERS = (
    ("finsler4.jets", "partial_extract", "jets.partial_extract"),
    ("finsler4.jets", "derivative_jet", "jets.derivative_jet"),
    ("finsler4.jets", "restrict", "jets.restrict"),
    ("finsler4.metrics", "eval_L_value", "metrics.eval_L_value"),
)

# PointEval cached property -> span name
PROPERTIES = (
    ("metric", "geometry.metric"),
    ("cartan", "geometry.cartan"),
    ("spray", "geometry.spray"),
    ("dx_g", "geometry.dx_g"),
    ("connection", "geometry.connection"),
    ("cartan_h_derivatives", "geometry.cartan_h"),
)


class Tracer:
    """In-memory spans (name, start, end, parent, point, phase, error) and
    counters.  ``point`` and ``phase`` label whatever runs next."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.point = None
        self.phase = None
        self._stack: list = []
        self._open: Counter = Counter()

    def span(self, name: str, fn):
        spans, stack, open_ = self.spans, self._stack, self._open
        recursive = name in RECURSIVE

        def wrapper(*args, **kwargs):
            if (recursive and open_[name]) or open_[OPAQUE]:
                return fn(*args, **kwargs)
            rec = [name, perf_counter(), None, stack[-1] if stack else -1,
                   self.point, self.phase, None]
            stack.append(len(spans))
            spans.append(rec)
            open_[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                rec[6] = type(err).__name__
                raise
            finally:
                rec[2] = perf_counter()
                open_[name] -= 1
                stack.pop()

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out


def _rebind(orig, wrapper) -> int:
    """Replace every module-level binding of ``orig`` in the package."""
    hits = 0
    for modname in MODULES:
        ns = vars(importlib.import_module(modname))
        for key, value in list(ns.items()):
            if value is orig:
                ns[key] = wrapper
                hits += 1
    return hits


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; raises if one is no longer found."""
    for modname, fname, name in SPANS:
        orig = getattr(importlib.import_module(modname), fname)
        if not _rebind(orig, tracer.span(name, orig)):
            raise RuntimeError(f"no binding of {modname}.{fname} to wrap")
    for modname, fname, name in COUNTERS:
        orig = getattr(importlib.import_module(modname), fname)
        if not _rebind(orig, tracer.counter(name, orig)):
            raise RuntimeError(f"no binding of {modname}.{fname} to wrap")

    from finsler4 import geometry, jets

    mul = jets.JetScalar.__mul__
    counts = tracer.counts

    def counted_mul(self, other):
        counts[f"jets.mul.{self.caps.x_max}_{self.caps.y_max}"] += 1
        return mul(self, other)

    jets.JetScalar.__mul__ = counted_mul
    jets.JetScalar.__rmul__ = counted_mul

    init = geometry.PointEval.__init__
    geometry.PointEval.__init__ = tracer.span("geometry.point_eval", init)
    for attr, name in PROPERTIES:
        prop = geometry.PointEval.__dict__[attr]
        prop.func = tracer.span(name, prop.func)

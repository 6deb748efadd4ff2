"""Numerical engine for four-dimensional Finsler geometry.

Computes fundamental tensors, sprays and connections, Miron frames with
their eight main scalars and connection vectors, conformal-transformation
residual suites, and Berwald/Landsberg classification, all driven by
exact truncated-Taylor jets of the fundamental function.

``import finsler4`` loads no submodule and no NumPy.  Each public name
below resolves on first access (PEP 562) to the attribute of the module
that defines it, so ``from finsler4 import point_eval`` loads only the
modules that ``point_eval`` needs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "classify": ("ClassificationReport", "classify_metric", "theorem_crosscheck"),
    "conformal": ("SigmaComponents", "audit_pair", "invariance_check", "sigma_components"),
    "exprdsl": ("eval_expr", "parse_expr"),
    "frame": ("ProfileResult", "covariant_derivatives", "scalar_profile"),
    "geometry": ("CartanTensorAt", "MetricTensorAt", "SprayAt", "point_eval"),
    "jets": ("DegreeCaps", "Finsler4Error", "InvalidArgument", "JetScalar", "SpecError",
             "partial_extract"),
    "metrics": ("DomainSpec", "MetricSpec", "SamplePlan", "eval_L", "make_builtin_metric",
                "make_conformal", "sample_domain"),
    "oracle": ("fd_partials", "oracle_tensors"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))

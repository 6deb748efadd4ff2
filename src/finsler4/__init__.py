"""Numerical engine for four-dimensional Finsler geometry.

Computes fundamental tensors, sprays and connections, Miron frames with
their eight main scalars and connection vectors, conformal-transformation
residual suites, and Berwald/Landsberg classification, all driven by
exact truncated-Taylor jets of the fundamental function.
"""

from .classify import ClassificationReport, classify_metric, theorem_crosscheck
from .conformal import (
    ConformalPair,
    SigmaComponents,
    audit_pair,
    berwald_case_conditions,
    invariance_check,
    landsberg_case_conditions,
    make_pair,
    sigma_components,
)
from .exprdsl import ExprError, eval_expr, parse_expr, pretty
from .frame import (
    ConnectionVectors,
    FrameBundle,
    MainScalars,
    ScalarProfile,
    scalar_profile,
)
from .geometry import (
    CartanTensorAt,
    MetricTensorAt,
    SprayAt,
    covariant_derivatives,
    point_eval,
)
from .jets import DegreeCaps, Finsler4Error, InvalidArgument, JetScalar, partial_extract
from .metrics import (
    DomainSpec,
    MetricSpec,
    SamplePlan,
    eval_L,
    make_builtin_metric,
    sample_domain,
)
from .oracle import FDConfig, fd_partial, fd_partials, oracle_tensors

__version__ = "0.1.0"

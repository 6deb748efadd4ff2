"""Point-sampled detectors for Riemannian / locally Minkowski / Berwald /
Landsberg character, with a cross-check between the tensor route (torsion
h-derivatives, spray cubic) and the frame route (connection vectors and
scalar derivative tables).

Verdicts are three-valued: numerical sampling cannot certify exact
vanishing, and a band between "vanishes" and "clearly does not" keeps
borderline points from flapping between yes and no.  One table,
``JUDGES``, gives each judged question its quantity, reference and band
edges; ``judge`` reads it, and it, ``all3``, ``agreement``, the
h-derivative measurement and the per-point loop (``point_records``) are
shared with the conformal audit.
Every aggregate claim is over the sampled points only; the
locally-Minkowski verdict is chart-relative by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import frame as frame_mod, geometry, jets, metrics
from .frame import FrameError
from .metrics import MetricSpec, SamplePlan

DEFAULT_TOL = 1e-6
VERDICTS = ("riemannian", "locally_minkowski_in_chart", "berwald", "landsberg")
AGREEMENT = ("agree", "disagree", "inconclusive")
_WORDS = {True: "yes", False: "no", None: "undetermined"}


# -- the judge ---------------------------------------------------------------


def band(value, scale, small: float, large: float) -> Optional[bool]:
    """The three-valued AND of the rows of ``value`` (a float is one row)
    against ``scale``: False if any row clearly does not vanish
    (> large * scale), else True if there are rows and every one vanishes
    (<= small * scale), else None (no rows, or a row in the band between
    them or NaN)."""
    if isinstance(value, float):  # np.float64 too: Python operators, no 0-d ufuncs
        if value > large * scale:
            return False
        return True if value <= small * scale else None
    if np.greater(value, large * scale).any():
        return False
    if np.size(value) and np.less_equal(value, small * scale).all():
        return True
    return None


class Judge(NamedTuple):
    """How one question is judged: its quantity (a key of the values, or a
    tuple of keys whose largest absolute entry it is) against
    ``values[reference]``, with band edges small and large, in units of tol
    if ``of_tol``."""

    quantity: str | tuple
    reference: str
    small: float
    large: float
    of_tol: bool = True


# the verdicts judge a PointRecord's fields, the routes of theorem_crosscheck
# also its frame fields, and the conformal audit a condition row or direct_barred
JUDGES = {
    "riemannian": Judge("max_cartan", "metric_scale", 1, 10),
    "locally_minkowski_in_chart": Judge("max_dx_metric", "metric_scale", 1, 10),
    "berwald": Judge("max_cartan_hderiv", "hderiv_scale", 1, 10),
    "landsberg": Judge("max_cartan_hderiv_transvected", "hderiv_scale", 1, 10),
    "berwald_frame": Judge(("max_hjk", "max_scalar_hderiv"), "hderiv_scale", 1, 10),
    "landsberg_frame": Judge(("max_hjk_l", "max_scalar_hderiv_l"), "hderiv_scale", 1, 10),
    "condition_row": Judge("residual", "scale", 1, 100),
    "barred_hjk": Judge(("h_bar", "j_bar", "k_bar"), "hderiv_scale", 1, 100),
    "berwald_measured": Judge("max_cartan_hderiv", "hderiv_scale", 1e-6, 1e-4, False),
    "landsberg_measured": Judge("max_cartan_hderiv_transvected", "hderiv_scale", 1e-6, 1e-4,
                                False),
}


def judge(question: str, values: Mapping, tol: float) -> Optional[bool]:
    """:func:`band` of the question's quantity in ``values`` (a float, or
    an array of rows such as a condition block's residuals) against its
    reference, at the edges of its ``JUDGES`` row."""
    row = JUDGES[question]
    q = row.quantity
    # one np.max over every key, which unlike max keeps a NaN in any of them
    value = values[q] if isinstance(q, str) else np.abs(np.hstack([values[k] for k in q])).max()
    unit = tol if row.of_tol else 1.0
    return band(value, values[row.reference], row.small * unit, row.large * unit)


def all3(flags: Iterable[Optional[bool]]) -> Optional[bool]:
    """Three-valued AND: any False decides False, else any None (or no flag
    at all) gives None."""
    flags = list(flags)
    if False in flags:
        return False
    if not flags or None in flags:
        return None
    return True


def agreement(a: Optional[bool], b: Optional[bool]) -> str:
    """Compare two three-valued flags; None on either side is inconclusive."""
    if a is None or b is None:
        return "inconclusive"
    return "agree" if a == b else "disagree"


def hderiv_measurement(pe: geometry.PointEval) -> dict:
    """The h-derivative maxima of the torsion tensor and the scale they are
    judged against, (1 + max|C|) * (1 + (max|F| + max|N|))."""
    c_h, c_0 = pe.cartan_h_derivatives
    c = float(np.abs(pe.cartan.C).max())
    conn = float(np.abs(pe.connection.F).max()) + float(np.abs(pe.spray.N).max())
    return {
        "max_cartan_hderiv": float(np.abs(c_h).max()),
        "max_cartan_hderiv_transvected": float(np.abs(c_0).max()),
        "hderiv_scale": (1.0 + c) * (1.0 + conn),
    }


# -- classification ----------------------------------------------------------


# the per-point maxima a report writes for each point; the largest of each
# over the evaluated points are the deciding residuals
POINT_MAXIMA = ("max_cartan", "max_dx_metric", "max_spray_cubic", "max_cartan_hderiv",
                "max_cartan_hderiv_transvected")


@dataclass(frozen=True)
class PointRecord:
    index: int
    x: np.ndarray
    y: np.ndarray
    torsion_norm: Optional[float] = None
    metric_scale: float = 1.0
    hderiv_scale: float = 1.0
    max_cartan: float = math.nan
    max_dx_metric: float = math.nan
    max_spray_cubic: float = math.nan
    max_cartan_hderiv: float = math.nan
    max_cartan_hderiv_transvected: float = math.nan
    frame: Optional[dict] = None
    frame_error: Optional[str] = None
    eval_error: Optional[str] = None


@dataclass(frozen=True)
class ClassificationReport:
    points: list
    verdicts: dict
    deciding_residuals: dict
    route_agreement: dict
    notes: list = field(default_factory=list)
    tol: float = DEFAULT_TOL


def evaluate_stack(pes: list) -> list:
    """Every stage classify and the conformal audit read, and the frame
    profile, for the PointEvals ``pes`` run as one stack.  One entry per
    PointEval: its ProfileResult, the FrameError that refused its frame, or
    the Finsler4Error that stopped it.  Each member caches its stages.

    The tensor stages run first and the frame last, so a frame refusal
    comes after everything the records read is cached; the stack gives a
    refused member its refusal in place (:func:`frame.scalar_profile`).
    If the stack raises a Finsler4Error and has more than one member, each
    member runs again alone from :meth:`PointEval.as_stack`, which keeps
    the stages it has cached, and a member that raises gets its own error.
    Errors are kept without their traceback, whose frames would hold the
    stack."""

    def work(stack: geometry.PointEval) -> list:
        # every stage by name: the zero stages of an x-free stack read no other
        for name in geometry._STAGES:
            getattr(stack, name)
        return frame_mod.scalar_profile(stack)

    def alone(pe: geometry.PointEval):
        try:
            return work(pe.as_stack())[0]
        except jets.Finsler4Error as err:
            return err.with_traceback(None)

    if len(pes) > 1:
        try:
            return work(geometry.PointEval.stack(pes))
        except jets.Finsler4Error:
            pass
    return [alone(pe) for pe in pes]


def error_fields(err: jets.Finsler4Error) -> dict:
    """The record fields of a point that ``err`` stopped: the type name of
    a FrameError that refused a frame as ``frame_error``, the message of
    any other Finsler4Error as ``eval_error``."""
    if isinstance(err, FrameError):
        return {"frame_error": type(err).__name__}
    return {"eval_error": str(err)}


def profile_of(outcome) -> frame_mod.ProfileResult:
    """The ProfileResult of an :func:`evaluate_stack` outcome; an error
    outcome is raised."""
    if isinstance(outcome, jets.Finsler4Error):
        raise outcome
    return outcome


def _as_array(v) -> np.ndarray:
    """The x or y of a point whose evaluation failed as a float array, or,
    if it is not one (a ragged list), as an object array."""
    try:
        return np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        return np.asarray(v, dtype=object)


def point_records(points: Sequence, spaces: Callable, read: Callable, failed: Callable) -> list:
    """One record per (x, y) of ``points``, every point's PointEvals
    ``spaces(x, y)`` evaluated as one stack (:func:`evaluate_stack`).
    ``read(i, pes, outcomes)`` makes point i's record from its PointEvals
    and their outcomes; if ``spaces`` or ``read`` raise a Finsler4Error,
    ``failed(i, x, y, error_fields(err))`` makes it."""
    records: list = [None] * len(points)
    built = []
    for i, (x, y) in enumerate(points):
        try:
            built.append((i, spaces(x, y)))
        except jets.Finsler4Error as err:
            records[i] = failed(i, _as_array(x), _as_array(y), error_fields(err))
    outcomes = iter(evaluate_stack([pe for _, pes in built for pe in pes]))
    for i, pes in built:
        got = [next(outcomes) for _ in pes]
        try:
            records[i] = read(i, pes, got)
        except jets.Finsler4Error as err:
            # an outcome raised again holds a traceback, whose frames would hold the stack
            records[i] = failed(i, pes[0].x, pes[0].y, error_fields(err.with_traceback(None)))
    return records


def _evaluate_record(index: int, pe: geometry.PointEval, prof) -> PointRecord:
    """The record of one point from its PointEval and its frame profile
    (a ProfileResult, or the FrameError that refused it; any other error
    is raised)."""
    frame_data: Optional[dict] = None
    refusal: dict = {}
    if isinstance(prof, FrameError):
        refusal = error_fields(prof)
    else:
        profile = profile_of(prof)
        hjk = profile.vectors[:3]
        frame_data = {
            **dict(zip("hjk", hjk.tolist())),
            "max_hjk": float(np.abs(hjk).max()),
            "max_hjk_l": float(np.abs(hjk[:, 0]).max()),
            "max_scalar_hderiv": float(np.abs(profile.h_derivs).max()),
            "max_scalar_hderiv_l": float(np.abs(profile.h_derivs[:, 0]).max()),
        }

    metric = pe.metric
    cartan = pe.cartan
    c_norm = cartan.C_norm
    return PointRecord(
        index=index,
        x=pe.x,
        y=pe.y,
        torsion_norm=None if np.isnan(c_norm) else float(c_norm),
        # C, d_x g and g all scale as L^2, so the verdicts are scale-free
        metric_scale=float(np.abs(metric.g).max()),
        max_cartan=float(np.abs(cartan.C).max()),
        max_dx_metric=float(np.abs(pe.dx_g).max()),
        max_spray_cubic=float(np.abs(pe.spray.G_hess3).max()),
        frame=frame_data,
        **refusal,
        **hderiv_measurement(pe),
    )


def check_tol(tol: float) -> None:
    """Raise InvalidParameters unless the tolerance is a finite number > 0."""
    if not 0.0 < tol < math.inf:
        raise metrics.InvalidParameters(f"tol needs a finite number > 0, got {tol!r}")


def classify_metric(
    spec: MetricSpec, plan: SamplePlan, tol: float = DEFAULT_TOL
) -> ClassificationReport:
    """Classify over the sampled points, all of them evaluated as one stack
    (:func:`point_records`); a point that cannot be evaluated becomes an
    ``eval_error`` record."""
    check_tol(tol)
    records = point_records(
        metrics.sample_domain(spec.domain, plan),
        lambda x, y: (geometry.point_eval(spec, x, y),),
        lambda i, pes, outcomes: _evaluate_record(i, pes[0], outcomes[0]),
        lambda i, x, y, fields: PointRecord(index=i, x=x, y=y, **fields),
    )

    usable = [vars(r) for r in records if r.eval_error is None]
    # yes if every point vanishes at tol, no if any clearly does not
    verdicts = {key: _WORDS[all3(judge(key, r, tol) for r in usable)] for key in VERDICTS}
    notes = []
    if verdicts["berwald"] == "yes" and verdicts["landsberg"] == "undetermined":
        # transvecting by |y| <= 2 cannot grow the residual past the band
        verdicts["landsberg"] = "yes"
        notes.append("landsberg promoted to yes: transvection of a vanishing h-derivative")

    deciding = {
        attr: max((r[attr] for r in usable), default=float("nan"))
        for attr in POINT_MAXIMA
    }

    report = ClassificationReport(
        points=records,
        verdicts=verdicts,
        deciding_residuals=deciding,
        route_agreement={},
        notes=notes,
        tol=tol,
    )
    return replace(report, route_agreement=theorem_crosscheck(report))


def theorem_crosscheck(report: ClassificationReport) -> dict:
    """Per-point agreement between the tensor route and the frame route, at
    the report's tolerance.

    The transvected-h-derivative test must match the vanishing of the
    l-components (h_1, j_1, k_1 and the l-column of the scalar derivative
    table); the full h-derivative test must match the vanishing of all
    connection-vector and scalar-derivative components.  Points without a
    Miron frame are left out; ``frame_valid_points`` counts the rest.
    """
    tol = report.tol
    frame_points = [
        r for r in report.points if r.frame is not None and r.eval_error is None
    ]

    per_point = []
    counts = {f"{kind}_{word}": 0 for kind in ("landsberg", "berwald") for word in AGREEMENT}
    for r in frame_points:
        values = {**vars(r), **r.frame}
        entry = {"index": r.index}
        for kind in ("landsberg", "berwald"):
            entry[kind] = agreement(judge(kind, values, tol), judge(f"{kind}_frame", values, tol))
            counts[f"{kind}_{entry[kind]}"] += 1
        per_point.append(entry)
    return {"points": per_point, "summary": counts, "frame_valid_points": len(frame_points)}

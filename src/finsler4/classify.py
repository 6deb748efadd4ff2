"""Point-sampled detectors for Riemannian / locally Minkowski / Berwald /
Landsberg character, with a cross-check between the tensor route (torsion
h-derivatives, spray cubic) and the frame route (connection vectors and
scalar derivative tables).

Verdicts are three-valued with a 10x hysteresis band: numerical sampling
cannot certify exact vanishing, and the band keeps borderline points from
flapping between yes and no.  The judge (``band``, ``all3``, ``agreement``)
and the h-derivative measurement are shared with the conformal audit.
Every aggregate claim is over the sampled points only; the
locally-Minkowski verdict is chart-relative by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

import numpy as np

from . import frame as frame_mod, geometry, jets, metrics
from .frame import FrameError
from .metrics import MetricSpec, SamplePlan

DEFAULT_TOL = 1e-6
# verdict key -> (PointRecord residual, the scale it is judged against)
VERDICTS = {
    "riemannian": ("max_cartan", "metric_scale"),
    "locally_minkowski_in_chart": ("max_dx_metric", "metric_scale"),
    "berwald": ("max_cartan_hderiv", "hderiv_scale"),
    "landsberg": ("max_cartan_hderiv_transvected", "hderiv_scale"),
}
AGREEMENT = ("agree", "disagree", "inconclusive")
_WORDS = {True: "yes", False: "no", None: "undetermined"}


# -- the judge ---------------------------------------------------------------


def band(value: float, scale: float, small: float, large: float) -> Optional[bool]:
    """True if value vanishes relative to scale (<= small * scale), False if
    it clearly does not (> large * scale), None in the band between them and
    for NaN."""
    if value <= small * scale:
        return True
    if value > large * scale:
        return False
    return None


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
    comes after everything the records read is cached.  If the stack
    raises a Finsler4Error and has more than one member, each member runs
    again alone from :meth:`PointEval.as_stack`, which keeps the stages it
    has cached, and a member that raises gets its own error.  Errors are
    kept without their traceback, whose frames would hold the stack."""

    def work(stack: geometry.PointEval) -> list:
        stack.cartan_h_derivatives  # reads every other tensor stage
        return frame_mod.scalar_profile(stack)

    if not pes:
        return []
    try:
        return work(geometry.PointEval.stack(pes))
    except jets.Finsler4Error as err:
        if len(pes) == 1:
            return [err.with_traceback(None)]
    out = []
    for pe in pes:
        try:
            out += work(pe.as_stack())
        except jets.Finsler4Error as err:
            out.append(err.with_traceback(None))
    return out


def _evaluate_record(index: int, pe: geometry.PointEval, prof) -> PointRecord:
    """The record of one point from its PointEval and its frame profile
    (a ProfileResult, or the FrameError that refused it)."""
    metric = pe.metric
    cartan = pe.cartan

    frame_data: Optional[dict] = None
    frame_error: Optional[str] = None
    if isinstance(prof, FrameError):
        frame_error = type(prof).__name__
    else:
        vec = prof.profile.vectors
        frame_data = {
            "h": vec.h.tolist(),
            "j": vec.j.tolist(),
            "k": vec.k.tolist(),
            "max_hjk": float(
                max(np.abs(vec.h).max(), np.abs(vec.j).max(), np.abs(vec.k).max())
            ),
            "max_hjk_l": float(max(abs(vec.h[0]), abs(vec.j[0]), abs(vec.k[0]))),
            "max_scalar_hderiv": float(np.abs(prof.profile.h_derivs).max()),
            "max_scalar_hderiv_l": float(np.abs(prof.profile.h_derivs[:, 0]).max()),
        }

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
        frame_error=frame_error,
        **hderiv_measurement(pe),
    )


def check_tol(tol: float) -> None:
    """Raise InvalidArgument unless the tolerance is a finite number > 0."""
    if not 0.0 < tol < math.inf:
        raise jets.InvalidArgument(f"tol must be a finite number > 0, got {tol!r}")


def classify_metric(
    spec: MetricSpec, plan: SamplePlan, tol: float = DEFAULT_TOL
) -> ClassificationReport:
    """Classify over the sampled points, all of them evaluated as one stack;
    a point that cannot be evaluated becomes an ``eval_error`` record."""
    check_tol(tol)
    points = metrics.sample_domain(spec.domain, plan)
    records: list = [None] * len(points)
    evaluated = []
    for idx, (x, y) in enumerate(points):
        try:
            evaluated.append((idx, geometry.point_eval(spec, x, y)))
        except jets.Finsler4Error as err:
            records[idx] = PointRecord(
                index=idx, x=np.asarray(x), y=np.asarray(y), eval_error=str(err)
            )
    outcomes = evaluate_stack([pe for _, pe in evaluated])
    for (idx, pe), outcome in zip(evaluated, outcomes):
        if isinstance(outcome, jets.Finsler4Error) and not isinstance(outcome, FrameError):
            records[idx] = PointRecord(index=idx, x=pe.x, y=pe.y, eval_error=str(outcome))
        else:
            records[idx] = _evaluate_record(idx, pe, outcome)

    usable = [r for r in records if r.eval_error is None]

    def verdict(attr: str, scale_attr: str) -> str:
        """yes if every point vanishes at tol, no if any clearly does not."""
        return _WORDS[all3(
            band(getattr(r, attr) / getattr(r, scale_attr), 1.0, tol, 10 * tol)
            for r in usable
        )]

    verdicts = {key: verdict(*attrs) for key, attrs in VERDICTS.items()}
    notes = []
    if verdicts["berwald"] == "yes" and verdicts["landsberg"] == "undetermined":
        # transvecting by |y| <= 2 cannot grow the residual past the band
        verdicts["landsberg"] = "yes"
        notes.append("landsberg promoted to yes: transvection of a vanishing h-derivative")

    deciding = {
        attr: max((getattr(r, attr) for r in usable), default=float("nan"))
        for attr in ("max_cartan", "max_dx_metric", "max_spray_cubic",
                     "max_cartan_hderiv", "max_cartan_hderiv_transvected")
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

    def judge(value: float, r: PointRecord) -> Optional[bool]:
        return band(value, r.hderiv_scale, tol, 10 * tol)

    per_point = []
    counts = {f"{kind}_{word}": 0 for kind in ("landsberg", "berwald") for word in AGREEMENT}
    for r in frame_points:
        entry = {"index": r.index}
        for kind, tensor, frame in (
            ("landsberg", r.max_cartan_hderiv_transvected,
             max(r.frame["max_hjk_l"], r.frame["max_scalar_hderiv_l"])),
            ("berwald", r.max_cartan_hderiv,
             max(r.frame["max_hjk"], r.frame["max_scalar_hderiv"])),
        ):
            entry[kind] = agreement(judge(tensor, r), judge(frame, r))
            counts[f"{kind}_{entry[kind]}"] += 1
        per_point.append(entry)
    return {"points": per_point, "summary": counts, "frame_valid_points": len(frame_points)}

"""Point-sampled detectors for Riemannian / locally Minkowski / Berwald /
Landsberg character, with a cross-check between the tensor route (torsion
h-derivatives, spray cubic) and the frame route (connection vectors and
scalar derivative tables).

Verdicts are three-valued with a 10x hysteresis band: numerical sampling
cannot certify exact vanishing, and the band keeps borderline points from
flapping between yes and no.  Every aggregate claim is over the sampled
points only; the locally-Minkowski verdict is chart-relative by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import frame as frame_mod, geometry, jets, metrics
from .frame import FrameError
from .metrics import MetricSpec, SamplePlan

DEFAULT_TOL = 1e-6
VERDICT_KEYS = ("riemannian", "locally_minkowski_in_chart", "berwald", "landsberg")


class ClassifyError(jets.Finsler4Error):
    pass


class NoFrameValidPoints(ClassifyError):
    pass


@dataclass(frozen=True)
class PointRecord:
    index: int
    x: np.ndarray
    y: np.ndarray
    torsion_norm: Optional[float]
    metric_scale: float
    hderiv_scale: float
    max_cartan: float
    max_dx_metric: float
    max_spray_cubic: float
    max_cartan_hderiv: float
    max_cartan_hderiv_transvected: float
    frame: Optional[dict]
    frame_error: Optional[str]
    eval_error: Optional[str] = None


@dataclass(frozen=True)
class ClassificationReport:
    points: list
    verdicts: dict
    deciding_residuals: dict
    route_agreement: dict
    notes: list = field(default_factory=list)
    tol: float = DEFAULT_TOL


def _verdict(ratios: list, tol: float) -> str:
    """yes if every point vanishes at tol, no if any clearly does not."""
    if not ratios:
        return "undetermined"
    if all(r <= tol for r in ratios):
        return "yes"
    if any(r > 10 * tol for r in ratios):
        return "no"
    return "undetermined"


def _evaluate_record(spec: MetricSpec, index: int, x, y) -> PointRecord:
    pe = geometry.point_eval(spec, x, y)
    metric = pe.metric
    cartan = pe.cartan
    spray = pe.spray
    c_h, c_0 = pe.cartan_h_derivatives

    metric_scale = 1.0 + float(np.max(np.abs(metric.g)))
    hderiv_scale = (1.0 + float(np.max(np.abs(cartan.C)))) * (
        1.0
        + float(np.max(np.abs(pe.connection.F)))
        + float(np.max(np.abs(spray.N)))
    )

    frame_data: Optional[dict] = None
    frame_error: Optional[str] = None
    try:
        prof = frame_mod.scalar_profile(pe)
        vec = prof.profile.vectors
        frame_data = {
            "h": vec.h.tolist(),
            "j": vec.j.tolist(),
            "k": vec.k.tolist(),
            "scalar_hderivs": prof.profile.h_derivs.tolist(),
            "max_hjk": float(
                max(np.max(np.abs(vec.h)), np.max(np.abs(vec.j)), np.max(np.abs(vec.k)))
            ),
            "max_hjk_l": float(max(abs(vec.h[0]), abs(vec.j[0]), abs(vec.k[0]))),
            "max_scalar_hderiv": float(np.max(np.abs(prof.profile.h_derivs))),
            "max_scalar_hderiv_l": float(np.max(np.abs(prof.profile.h_derivs[:, 0]))),
        }
    except FrameError as err:
        frame_error = type(err).__name__

    c_norm = cartan.C_norm
    return PointRecord(
        index=index,
        x=np.asarray(x, dtype=float),
        y=np.asarray(y, dtype=float),
        torsion_norm=None if np.isnan(c_norm) else float(c_norm),
        metric_scale=metric_scale,
        hderiv_scale=hderiv_scale,
        max_cartan=float(np.max(np.abs(cartan.C))),
        max_dx_metric=float(np.max(np.abs(pe.dx_g))),
        max_spray_cubic=float(np.max(np.abs(spray.G_hess3))),
        max_cartan_hderiv=float(np.max(np.abs(c_h))),
        max_cartan_hderiv_transvected=float(np.max(np.abs(c_0))),
        frame=frame_data,
        frame_error=frame_error,
    )


def classify_metric(
    spec: MetricSpec, plan: SamplePlan, tol: float = DEFAULT_TOL
) -> ClassificationReport:
    points = metrics.sample_domain(spec.domain, plan)
    records: list = []
    for idx, (x, y) in enumerate(points):
        try:
            records.append(_evaluate_record(spec, idx, x, y))
        except jets.Finsler4Error as err:
            records.append(
                PointRecord(
                    index=idx, x=np.asarray(x), y=np.asarray(y),
                    torsion_norm=None, metric_scale=1.0, hderiv_scale=1.0,
                    max_cartan=float("nan"), max_dx_metric=float("nan"),
                    max_spray_cubic=float("nan"), max_cartan_hderiv=float("nan"),
                    max_cartan_hderiv_transvected=float("nan"),
                    frame=None, frame_error=None, eval_error=str(err),
                )
            )

    usable = [r for r in records if r.eval_error is None]

    def ratios(attr: str, scale_attr: str) -> list:
        return [getattr(r, attr) / getattr(r, scale_attr) for r in usable]

    verdicts = {
        "riemannian": _verdict(ratios("max_cartan", "metric_scale"), tol),
        "locally_minkowski_in_chart": _verdict(ratios("max_dx_metric", "metric_scale"), tol),
        "berwald": _verdict(ratios("max_cartan_hderiv", "hderiv_scale"), tol),
        "landsberg": _verdict(
            ratios("max_cartan_hderiv_transvected", "hderiv_scale"), tol
        ),
    }
    notes = []
    if verdicts["berwald"] == "yes" and verdicts["landsberg"] == "undetermined":
        # transvecting by |y| <= 2 cannot grow the residual past the band
        verdicts["landsberg"] = "yes"
        notes.append("landsberg promoted to yes: transvection of a vanishing h-derivative")

    deciding = {
        "max_cartan": max((r.max_cartan for r in usable), default=float("nan")),
        "max_dx_metric": max((r.max_dx_metric for r in usable), default=float("nan")),
        "max_spray_cubic": max((r.max_spray_cubic for r in usable), default=float("nan")),
        "max_cartan_hderiv": max((r.max_cartan_hderiv for r in usable), default=float("nan")),
        "max_cartan_hderiv_transvected": max(
            (r.max_cartan_hderiv_transvected for r in usable), default=float("nan")
        ),
    }

    report = ClassificationReport(
        points=records,
        verdicts=verdicts,
        deciding_residuals=deciding,
        route_agreement={},
        notes=notes,
        tol=tol,
    )
    return replace(report, route_agreement=theorem_crosscheck(report, strict=False))


def _three_way(value: float, scale: float, tol: float) -> Optional[bool]:
    if value <= tol * scale:
        return True
    if value > 10 * tol * scale:
        return False
    return None


def theorem_crosscheck(
    report: ClassificationReport, strict: bool = True, tol: Optional[float] = None
) -> dict:
    """Per-point agreement between the tensor route and the frame route.

    The transvected-h-derivative test must match the vanishing of the
    l-components (h_1, j_1, k_1 and the l-column of the scalar derivative
    table); the full h-derivative test must match the vanishing of all
    connection-vector and scalar-derivative components.
    """
    tol = tol if tol is not None else report.tol
    frame_points = [
        r for r in report.points if r.frame is not None and r.eval_error is None
    ]
    if strict and not frame_points:
        raise NoFrameValidPoints("no sampled point admits a Miron frame")

    per_point = []
    counts = {
        "landsberg_agree": 0, "landsberg_disagree": 0, "landsberg_inconclusive": 0,
        "berwald_agree": 0, "berwald_disagree": 0, "berwald_inconclusive": 0,
    }
    for r in frame_points:
        tensor_landsberg = _three_way(
            r.max_cartan_hderiv_transvected, r.hderiv_scale, tol
        )
        frame_landsberg = _three_way(
            max(r.frame["max_hjk_l"], r.frame["max_scalar_hderiv_l"]),
            r.hderiv_scale, tol,
        )
        tensor_berwald = _three_way(r.max_cartan_hderiv, r.hderiv_scale, tol)
        frame_berwald = _three_way(
            max(r.frame["max_hjk"], r.frame["max_scalar_hderiv"]),
            r.hderiv_scale, tol,
        )
        entry = {"index": r.index}
        for kind, a, b in (
            ("landsberg", tensor_landsberg, frame_landsberg),
            ("berwald", tensor_berwald, frame_berwald),
        ):
            if a is None or b is None:
                entry[kind] = "inconclusive"
                counts[f"{kind}_inconclusive"] += 1
            elif a == b:
                entry[kind] = "agree"
                counts[f"{kind}_agree"] += 1
            else:
                entry[kind] = "disagree"
                counts[f"{kind}_disagree"] += 1
        per_point.append(entry)
    return {"points": per_point, "summary": counts, "frame_valid_points": len(frame_points)}

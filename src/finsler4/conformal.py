"""Conformal rescaling: invariance laws, spray-difference profile, and the
Landsberg/Berwald condition systems with their case dispatch.

For a position-only factor sigma the rescaled space shares its Miron
frame directions with the base space (vectors shrink by e^-sigma,
covectors grow by e^sigma), the mixed torsion tensor and all eight main
scalars are invariant, and the nonlinear-connection difference projected
into the base frame carries a rigid sign layout: the first row and
column hold the frame components of the sigma gradient
(antisymmetrically), while the symmetric lower block supplies six more
scalars (named sigma5..sigma10 here) that feed the Berwald-type
conditions.  The layout is verified numerically on every extraction; the
residuals travel with the result.

Condition blocks are labelled by what they test, with per-label scales
(the sum of the absolute values of the combined terms) so that
"satisfied" can be judged relative to the size of the ingredients;
ratio-type conditions are evaluated in cross-multiplied form to avoid
dividing by vanishing scalar derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import exprdsl, frame as frame_mod, geometry, jets, metrics
from .classify import AGREEMENT, agreement, all3, band, hderiv_measurement
from .frame import FrameError, ProfileResult, SCALAR_NAMES, ScalarProfile
from .geometry import PointEval
from .jets import DegreeCaps, Finsler4Error, derivative_tensor
from .metrics import MetricSpec, SamplePlan

TAU_SIGMA = 1e-8
# spray-difference extraction residuals above this share of the extraction
# scale make the Berwald conditions unusable at a point
EXTRACTION_TOL = 1e-6

# support patterns of (sigma2, sigma3, sigma4), named by frame directions
CASE_ALL = "m_n_p"
CASE_M_N = "m_n"
CASE_M_P = "m_p"
CASE_N_P = "n_p"
CASE_M = "m_only"
CASE_N = "n_only"
CASE_P = "p_only"
CASE_HOMOTHETIC = "homothetic"
CASE_SUPPORTING_ONLY = "supporting_only"  # gradient along l alone (anomalous)

_PATTERN_TO_CASE = {
    (True, True, True): CASE_ALL,
    (True, True, False): CASE_M_N,
    (True, False, True): CASE_M_P,
    (False, True, True): CASE_N_P,
    (True, False, False): CASE_M,
    (False, True, False): CASE_N,
    (False, False, True): CASE_P,
}


class ConformalError(Finsler4Error):
    pass


class ExtractionUnreliable(ConformalError):
    pass


class MissingSigma(ConformalError):
    pass


@dataclass(frozen=True)
class ConformalPair:
    base: MetricSpec
    lifted: MetricSpec

    @property
    def sigma_ast(self):
        return self.lifted.sigma_ast


def make_pair(base: MetricSpec, sigma) -> ConformalPair:
    """The base metric and its rescaling by a position-only factor e^sigma(x)."""
    return ConformalPair(base=base, lifted=metrics.make_conformal(base, sigma))


def pair_from_spec(spec: MetricSpec) -> ConformalPair:
    if spec.family != "conformal":
        raise MissingSigma("the spec carries no conformal factor")
    return ConformalPair(base=spec.base, lifted=spec)


@dataclass(frozen=True)
class SigmaComponents:
    sigma1: float
    sigma2: float
    sigma3: float
    sigma4: float
    sigma5: float
    sigma6: float
    sigma7: float
    sigma8: float
    sigma9: float
    sigma10: float
    sigma_value: float
    sigma_grad: np.ndarray
    extraction_residuals: dict

    def frame_grad(self) -> np.ndarray:
        return np.array([self.sigma1, self.sigma2, self.sigma3, self.sigma4])

    def spray_block(self) -> np.ndarray:
        return np.array(
            [self.sigma5, self.sigma6, self.sigma7,
             self.sigma8, self.sigma9, self.sigma10]
        )


def sigma_gradient(pair: ConformalPair, x: Sequence[float]) -> tuple[float, np.ndarray]:
    """(sigma(x), d sigma / dx) via a first-order jet evaluation."""
    caps = DegreeCaps(1, 0)
    env = [jets.variable(i, float(x[i]), caps) for i in range(4)] + [0.0] * 4
    val = exprdsl.eval_expr(pair.sigma_ast, env)
    if not isinstance(val, jets.JetScalar):
        return float(val), np.zeros(4)
    grad = derivative_tensor(val, 1, 0)
    return val.base, grad


def sigma_components(
    pair: ConformalPair, base: ProfileResult, lifted: ProfileResult
) -> SigmaComponents:
    """Frame components of the sigma gradient plus the six scalars read off
    the frame-projected nonlinear-connection difference, from the profiles
    of the base and the rescaled space at the same point."""
    base_pe, lifted_pe, base_frame = base.pe, lifted.pe, base.frame
    y = base_pe.y

    sigma_value, grad = sigma_gradient(pair, base_pe.x)
    s_frame = base_frame.e @ grad  # sigma_alpha = (d sigma)_i e_(alpha)^i

    L0 = base_pe.L
    delta_n = lifted_pe.spray.N - base_pe.spray.N
    D = base_frame.e_flat @ delta_n @ base_frame.e.T / L0

    sigma5 = D[1, 1]
    sigma6 = -0.5 * (D[1, 2] + D[2, 1])
    sigma7 = -0.5 * (D[1, 3] + D[3, 1])
    sigma8 = D[2, 2]
    sigma9 = 0.5 * (D[2, 3] + D[3, 2])
    sigma10 = D[3, 3]

    scale = 1.0 + float(np.max(np.abs(D)))
    resid = {
        "sym_mn": abs(D[1, 2] - D[2, 1]),
        "sym_mp": abs(D[1, 3] - D[3, 1]),
        "sym_np": abs(D[2, 3] - D[3, 2]),
        "antisym_lm": abs(D[0, 1] + D[1, 0]),
        "antisym_ln": abs(D[0, 2] + D[2, 0]),
        "antisym_lp": abs(D[0, 3] + D[3, 0]),
        "grad_slot_l": abs(D[0, 0] - s_frame[0]),
        "grad_slot_m": abs(D[0, 1] - s_frame[1]),
        "grad_slot_n": abs(D[0, 2] - s_frame[2]),
        "grad_slot_p": abs(D[0, 3] - s_frame[3]),
    }
    # transvecting the connection difference recovers the spray difference:
    # delta G^i = sigma0 y^i - (L^2/2) grad-sharp^i, with sigma0 = grad . y
    sigma0 = float(grad @ y)
    grad_sharp = base_pe.metric.g_inv @ grad
    delta_g_pred = sigma0 * y - 0.5 * L0**2 * grad_sharp
    delta_g = lifted_pe.spray.G - base_pe.spray.G
    resid["spray_transvection"] = float(
        np.max(np.abs(delta_g - delta_g_pred)) / (1.0 + np.max(np.abs(delta_g_pred)))
    )
    resid["_scale"] = scale

    return SigmaComponents(
        sigma1=float(s_frame[0]), sigma2=float(s_frame[1]),
        sigma3=float(s_frame[2]), sigma4=float(s_frame[3]),
        sigma5=float(sigma5), sigma6=float(sigma6), sigma7=float(sigma7),
        sigma8=float(sigma8), sigma9=float(sigma9), sigma10=float(sigma10),
        sigma_value=float(sigma_value), sigma_grad=grad,
        extraction_residuals=resid,
    )


def case_of(sc: SigmaComponents) -> tuple[str, bool]:
    """Support pattern of (sigma2, sigma3, sigma4); near-degenerate points
    (components hovering around the threshold) are flagged, not hidden."""
    comps = (sc.sigma2, sc.sigma3, sc.sigma4)
    pattern = tuple(abs(c) >= TAU_SIGMA for c in comps)
    near = any(TAU_SIGMA / 2 < abs(c) < 2 * TAU_SIGMA for c in comps)
    if not any(pattern):
        if abs(sc.sigma1) < TAU_SIGMA:
            return CASE_HOMOTHETIC, near
        return CASE_SUPPORTING_ONLY, near
    return _PATTERN_TO_CASE[pattern], near


def _entry(*terms: float) -> dict:
    return {
        "residual": abs(math.fsum(terms)),
        "scale": math.fsum(abs(t) for t in terms),
    }


def landsberg_case_conditions(
    profile: ScalarProfile, sc: SigmaComponents
) -> tuple[str, bool, dict]:
    """The rescaled space is Landsberg iff these all vanish (base space
    locally Minkowski).  Returns (case, near_degenerate, labelled residuals)."""
    case, near = case_of(sc)
    s2, s3, s4 = sc.sigma2, sc.sigma3, sc.sigma4
    vd = profile.v_derivs
    vec = profile.vectors
    out: dict = {}
    for row, name in enumerate(SCALAR_NAMES):
        out[f"landsberg:scalar:{name}"] = _entry(
            s2 * vd[row, 1], s3 * vd[row, 2], s4 * vd[row, 3]
        )
    out["landsberg:h1"] = _entry(vec.h[0], s2 * vec.u[1], s3 * vec.u[2], s4 * vec.u[3])
    out["landsberg:j1"] = _entry(vec.j[0], s2 * vec.v[1], s3 * vec.v[2], s4 * vec.v[3])
    out["landsberg:k1"] = _entry(vec.k[0], s2 * vec.w[1], s3 * vec.w[2], s4 * vec.w[3])

    reduced = {
        CASE_M_N: lambda row: _entry(s2 * vd[row, 1], s3 * vd[row, 2]),
        CASE_M_P: lambda row: _entry(s2 * vd[row, 1], s4 * vd[row, 3]),
        CASE_N_P: lambda row: _entry(s3 * vd[row, 2], s4 * vd[row, 3]),
        CASE_M: lambda row: _entry(vd[row, 1]),
        CASE_N: lambda row: _entry(vd[row, 2]),
        CASE_P: lambda row: _entry(vd[row, 3]),
    }.get(case)
    if reduced is not None:
        for row, name in enumerate(SCALAR_NAMES):
            out[f"reduced:{case}:{name}"] = reduced(row)
    return case, near, out


def berwald_case_conditions(
    profile: ScalarProfile, sc: SigmaComponents
) -> tuple[str, bool, dict]:
    """Scalar part of the Berwald conditions for the rescaled space.

    The h/j/k part involves second-derivative data of sigma that this
    engine does not model symbolically; callers pair these residuals with
    the directly computed connection vectors of the rescaled space.
    """
    bad = {
        k: v
        for k, v in sc.extraction_residuals.items()
        if not k.startswith("_") and v > EXTRACTION_TOL * sc.extraction_residuals["_scale"]
    }
    if bad:
        raise ExtractionUnreliable(
            f"spray-difference extraction residuals above tolerance: {bad}"
        )
    case, near = case_of(sc)
    s5, s6, s7 = sc.sigma5, sc.sigma6, sc.sigma7
    s8, s9, s10 = sc.sigma8, sc.sigma9, sc.sigma10
    vd = profile.v_derivs
    out: dict = {}
    for row, name in enumerate(SCALAR_NAMES):
        a2, a3, a4 = vd[row, 1], vd[row, 2], vd[row, 3]
        out[f"berwald:{name}:m"] = _entry(-s5 * a2, s6 * a3, s7 * a4)
        out[f"berwald:{name}:n"] = _entry(s6 * a2, -s8 * a3, -s9 * a4)
        out[f"berwald:{name}:p"] = _entry(s7 * a2, -s9 * a3, -s10 * a4)
    if case == CASE_M:
        for row, name in enumerate(SCALAR_NAMES):
            a3, a4 = vd[row, 2], vd[row, 3]
            out[f"ratio:{case}:{name}:a"] = _entry(s6 * a3, s7 * a4)
            out[f"ratio:{case}:{name}:b"] = _entry(s8 * a3, s9 * a4)
            out[f"ratio:{case}:{name}:c"] = _entry(s9 * a3, s10 * a4)
        out[f"ratio:{case}:chain:a"] = _entry(s7 * s8, -s6 * s9)
        out[f"ratio:{case}:chain:b"] = _entry(s9 * s9, -s8 * s10)
    elif case == CASE_N:
        for row, name in enumerate(SCALAR_NAMES):
            a2, a4 = vd[row, 1], vd[row, 3]
            out[f"ratio:{case}:{name}:a"] = _entry(s5 * a2, -s7 * a4)
            out[f"ratio:{case}:{name}:b"] = _entry(s6 * a2, -s9 * a4)
            out[f"ratio:{case}:{name}:c"] = _entry(s7 * a2, -s10 * a4)
        out[f"ratio:{case}:chain:a"] = _entry(s7 * s6, -s9 * s5)
        out[f"ratio:{case}:chain:b"] = _entry(s9 * s7, -s10 * s6)
    elif case == CASE_P:
        for row, name in enumerate(SCALAR_NAMES):
            a2, a3 = vd[row, 1], vd[row, 2]
            out[f"ratio:{case}:{name}:a"] = _entry(s5 * a2, -s6 * a3)
            out[f"ratio:{case}:{name}:b"] = _entry(s6 * a2, -s8 * a3)
            out[f"ratio:{case}:{name}:c"] = _entry(s7 * a2, -s9 * a3)
        out[f"ratio:{case}:chain:a"] = _entry(s6 * s6, -s5 * s8)
        out[f"ratio:{case}:chain:b"] = _entry(s8 * s7, -s6 * s9)
    return case, near, out


# -- invariance suite --------------------------------------------------------


def invariance_check(
    base: ProfileResult, lifted: ProfileResult, sc: SigmaComponents
) -> dict:
    """Residuals of the rescaling laws relating the two spaces at a point."""
    es = math.exp(sc.sigma_value)
    bpe, lpe = base.pe, lifted.pe

    out: dict = {}
    if base.frame.gauge_tag != lifted.frame.gauge_tag:
        out["gauge_match"] = float("nan")
    else:
        out["gauge_match"] = 0.0
    for idx, name in enumerate(("l", "m", "n", "p")):
        out[f"covector_scale:{name}"] = float(
            np.max(np.abs(lifted.frame.e_flat[idx] - es * base.frame.e_flat[idx]))
        )
        out[f"vector_scale:{name}"] = float(
            np.max(np.abs(lifted.frame.e[idx] - base.frame.e[idx] / es))
        )
    out["metric_scale"] = float(np.max(np.abs(lpe.metric.g - es**2 * bpe.metric.g)))
    out["inverse_metric_scale"] = float(
        np.max(np.abs(lpe.metric.g_inv - bpe.metric.g_inv / es**2))
    )
    out["torsion_scale"] = float(np.max(np.abs(lpe.cartan.C - es**2 * bpe.cartan.C)))
    out["mixed_torsion_invariance"] = float(
        np.max(np.abs(lpe.connection.Cmix - bpe.connection.Cmix))
    )
    for name in SCALAR_NAMES:
        out[f"main_scalar:{name}"] = abs(
            getattr(lifted.profile.scalars, name) - getattr(base.profile.scalars, name)
        )

    bvec, lvec = base.profile.vectors, lifted.profile.vectors
    s2, s3, s4 = sc.sigma2, sc.sigma3, sc.sigma4
    out["hbar1_law"] = abs(
        lvec.h[0] - (bvec.h[0] + s2 * bvec.u[1] + s3 * bvec.u[2] + s4 * bvec.u[3]) / es
    )
    out["jbar1_law"] = abs(
        lvec.j[0] - (bvec.j[0] + s2 * bvec.v[1] + s3 * bvec.v[2] + s4 * bvec.v[3]) / es
    )
    out["kbar1_law"] = abs(
        lvec.k[0] - (bvec.k[0] + s2 * bvec.w[1] + s3 * bvec.w[2] + s4 * bvec.w[3]) / es
    )

    if _flat_in_chart(bpe):
        vd = base.profile.v_derivs
        for row, name in enumerate(SCALAR_NAMES):
            predicted = (s2 * vd[row, 1] + s3 * vd[row, 2] + s4 * vd[row, 3]) / es
            out[f"scalar_hderiv_l_law:{name}"] = abs(
                lifted.profile.h_derivs[row, 0] - predicted
            )
    return out


# -- per-point orchestration and corpus audit --------------------------------


@dataclass(frozen=True)
class PointConformalReport:
    x: np.ndarray
    y: np.ndarray
    case: Optional[str] = None
    near_degenerate: bool = False
    sigma: Optional[SigmaComponents] = None
    landsberg_residuals: dict = field(default_factory=dict)
    berwald_residuals: dict = field(default_factory=dict)
    direct_barred: dict = field(default_factory=dict)
    invariance_residuals: dict = field(default_factory=dict)
    frame_error: Optional[str] = None
    eval_error: Optional[str] = None


def _flat_in_chart(pe: PointEval) -> bool:
    return float(np.max(np.abs(pe.dx_g))) < 1e-9


def evaluate_point(
    pair: ConformalPair, x: Sequence[float], y: Sequence[float]
) -> PointConformalReport:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    base_pe = geometry.point_eval(pair.base, x, y)
    lifted_pe = geometry.point_eval(pair.lifted, x, y)
    try:
        base_prof = frame_mod.scalar_profile(base_pe)
        lifted_prof = frame_mod.scalar_profile(lifted_pe)
    except FrameError as err:
        return PointConformalReport(x=x, y=y, frame_error=type(err).__name__)

    sc = sigma_components(pair, base_prof, lifted_prof)
    case, near, lands = landsberg_case_conditions(base_prof.profile, sc)
    _, _, berw = berwald_case_conditions(base_prof.profile, sc)

    direct = {
        "h_bar": lifted_prof.profile.vectors.h.tolist(),
        "j_bar": lifted_prof.profile.vectors.j.tolist(),
        "k_bar": lifted_prof.profile.vectors.k.tolist(),
        "scalar_hderiv_l_bar": lifted_prof.profile.h_derivs[:, 0].tolist(),
        **hderiv_measurement(lifted_pe),
    }
    inv = invariance_check(base_prof, lifted_prof, sc)
    return PointConformalReport(
        x=x, y=y, case=case, near_degenerate=near, sigma=sc,
        landsberg_residuals=lands, berwald_residuals=berw,
        direct_barred=direct, invariance_residuals=inv,
    )


def _block_satisfied(residuals: dict, prefix: tuple, tol: float) -> Optional[bool]:
    """True if every matching label vanishes relative to its scale, False
    if some label clearly fails, None in the hysteresis band."""
    return all3(
        band(v["residual"] / (v["scale"] + 1e-12), 1.0, tol, 100 * tol)
        for k, v in residuals.items() if k.startswith(prefix)
    )


@dataclass(frozen=True)
class ConformalAudit:
    reports: list
    landsberg_summary: dict
    berwald_summary: dict


def audit_pair(
    pair: ConformalPair,
    plan: SamplePlan,
    tol: float = 1e-6,
    bar_small: float = 1e-6,
    bar_large: float = 1e-4,
) -> ConformalAudit:
    """Co-occurrence audit over sampled points: do the condition blocks
    agree with the directly measured character of the rescaled space?"""
    points = metrics.sample_domain(pair.base.domain, plan)
    reports = []
    for x, y in points:
        try:
            reports.append(evaluate_point(pair, x, y))
        except Finsler4Error as err:
            reports.append(PointConformalReport(
                x=np.asarray(x, dtype=float), y=np.asarray(y, dtype=float),
                eval_error=str(err),
            ))

    def summarise(kind: str) -> dict:
        counts = dict.fromkeys(AGREEMENT + ("skipped_frame_errors",), 0)
        for rep in reports:
            if rep.eval_error is not None:
                continue
            if rep.frame_error is not None:
                counts["skipped_frame_errors"] += 1
                continue
            direct = rep.direct_barred
            scale = direct["hderiv_scale"]
            if kind == "landsberg":
                cond = _block_satisfied(rep.landsberg_residuals, ("landsberg:", "reduced:"), tol)
                meas = band(
                    direct["max_cartan_hderiv_transvected"], scale, bar_small, bar_large
                )
            else:
                hjk = max(
                    float(np.max(np.abs(direct["h_bar"]))),
                    float(np.max(np.abs(direct["j_bar"]))),
                    float(np.max(np.abs(direct["k_bar"]))),
                )
                cond = all3((
                    _block_satisfied(rep.berwald_residuals, ("berwald:", "ratio:"), tol),
                    band(hjk, scale, tol, 100 * tol),
                ))
                meas = band(direct["max_cartan_hderiv"], scale, bar_small, bar_large)
            counts[agreement(cond, meas)] += 1
        return counts

    return ConformalAudit(
        reports=reports,
        landsberg_summary=summarise("landsberg"),
        berwald_summary=summarise("berwald"),
    )

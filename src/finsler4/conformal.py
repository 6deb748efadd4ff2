"""Conformal rescaling: invariance laws, spray-difference profile, and the
Landsberg/Berwald condition systems with their case dispatch.

For a position-only factor sigma the rescaled space shares its Miron
frame directions with the base space (vectors shrink by e^-sigma,
covectors grow by e^sigma), the mixed torsion tensor and all eight main
scalars are invariant, and the nonlinear-connection difference projected
into the base frame carries a rigid sign layout: the first row and
column hold the frame components sigma1..sigma4 of the sigma gradient
(antisymmetrically), while the symmetric (m, n, p) block supplies six
more scalars, sigma5..sigma10.  The layout is verified numerically on
every extraction; the residuals travel with the result.

The condition systems are one algebra over the support of sigma (the
directions a of (m, n, p) with |sigma_a| >= TAU_SIGMA, which name the
case) and B, minus the symmetrised (m, n, p) block: Landsberg asks
sigma_a S;_a = 0 for each main scalar S and h_1 + sigma_a u_a = 0
(likewise j/v, k/w); Berwald asks B (S;_m, S;_n, S;_p) = 0.  Each label
carries |sum of its terms| and the sum of their absolute values as its
scale; ratio-type conditions are cross-multiplied (2x2 minors), so a
vanishing scalar derivative never divides.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Optional, Sequence

import numpy as np

from . import exprdsl, geometry, jets, metrics
from .classify import (
    AGREEMENT, DEFAULT_TOL, agreement, all3, check_tol, hderiv_measurement, judge, point_records,
    profile_of,
)
from .frame import ProfileResult, SCALAR_NAMES
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

_FRAME_NAMES = "lmnp"


class ConformalError(Finsler4Error):
    pass


class ExtractionUnreliable(ConformalError):
    pass


class MissingSigma(ConformalError):
    pass


def pair_from_spec(spec: MetricSpec) -> MetricSpec:
    """The spec, if it is a conformal rescaling (its ``base`` and
    ``sigma_ast`` fix both spaces); MissingSigma if it is not."""
    if spec.family != "conformal":
        raise MissingSigma("the spec carries no conformal factor")
    return spec


@dataclass(frozen=True)
class SigmaComponents:
    components: np.ndarray  # (10,): sigma_k at index k - 1
    sigma_value: float
    sigma_grad: np.ndarray
    extraction_residuals: dict
    # 1 + max |projected connection difference|; residuals are judged against it
    extraction_scale: float

    def frame_grad(self) -> np.ndarray:
        return self.components[:4]

    def spray_block(self) -> np.ndarray:
        return self.components[4:]


def sigma_gradient(spec: MetricSpec, x: Sequence[float]) -> tuple[float, np.ndarray]:
    """(sigma(x), d sigma / dx) of a conformal spec via a first-order jet
    evaluation."""
    caps = DegreeCaps(1, 0)
    env = [jets.variable(i, float(x[i]), caps) for i in range(4)] + [0.0] * 4
    val = exprdsl.eval_expr(spec.sigma_ast, env)
    if not isinstance(val, jets.JetScalar):
        return float(val), np.zeros(4)
    grad = derivative_tensor(val, 1, 0)
    return val.base, grad


def sigma_components(base: ProfileResult, lifted: ProfileResult) -> SigmaComponents:
    """Frame components of the sigma gradient plus the six scalars read off
    the frame-projected nonlinear-connection difference, from the profiles
    of the base and the rescaled space at the same point; sigma is that of
    the rescaled space's spec (MissingSigma if it has none)."""
    base_pe, lifted_pe = base.pe, lifted.pe
    y = base_pe.y

    sigma_value, grad = sigma_gradient(pair_from_spec(lifted_pe.spec), base_pe.x)
    s_frame = base.e @ grad  # sigma_alpha = (d sigma)_i e_(alpha)^i

    L0 = base_pe.L
    delta_n = lifted_pe.spray.N - base_pe.spray.N
    D = base.e_flat @ delta_n @ base.e.T / L0

    spray_block = (
        D[1, 1], -0.5 * (D[1, 2] + D[2, 1]), -0.5 * (D[1, 3] + D[3, 1]),
        D[2, 2], 0.5 * (D[2, 3] + D[3, 2]), D[3, 3],
    )

    # the (m, n, p) block is symmetric, the l row and column antisymmetric,
    # and the l row holds the frame gradient
    resid = {
        f"sym_{_FRAME_NAMES[a]}{_FRAME_NAMES[b]}": abs(D[a, b] - D[b, a])
        for a, b in itertools.combinations((1, 2, 3), 2)
    }
    for b in (1, 2, 3):
        resid[f"antisym_l{_FRAME_NAMES[b]}"] = abs(D[0, b] + D[b, 0])
    for a in range(4):
        resid[f"grad_slot_{_FRAME_NAMES[a]}"] = abs(D[0, a] - s_frame[a])
    # transvecting the connection difference recovers the spray difference:
    # delta G^i = sigma0 y^i - (L^2/2) grad-sharp^i, with sigma0 = grad . y
    sigma0 = float(grad @ y)
    grad_sharp = base_pe.metric.g_inv @ grad
    delta_g_pred = sigma0 * y - 0.5 * L0**2 * grad_sharp
    delta_g = lifted_pe.spray.G - base_pe.spray.G
    resid["spray_transvection"] = float(
        np.abs(delta_g - delta_g_pred).max() / (1.0 + np.abs(delta_g_pred).max())
    )

    return SigmaComponents(
        components=np.array([*s_frame, *spray_block]),
        sigma_value=float(sigma_value), sigma_grad=grad,
        extraction_residuals={k: float(v) for k, v in resid.items()},
        extraction_scale=1.0 + float(np.abs(D).max()),
    )


def _support(sc: SigmaComponents) -> tuple:
    """Indices into (m, n, p) where |sigma2|, |sigma3|, |sigma4| >= TAU_SIGMA."""
    return tuple(a for a, s in enumerate(sc.components[1:4].tolist()) if abs(s) >= TAU_SIGMA)


def case_of(sc: SigmaComponents) -> tuple[str, bool]:
    """The case the support names ("m_n", "p_only", ...); near-degenerate
    points (components hovering around the threshold) are flagged, not hidden."""
    near = any(TAU_SIGMA / 2 < abs(c) < 2 * TAU_SIGMA for c in sc.components[1:4].tolist())
    support = _support(sc)
    if not support:
        if abs(sc.components[0]) < TAU_SIGMA:
            return CASE_HOMOTHETIC, near
        return CASE_SUPPORTING_ONLY, near
    name = "_".join(_FRAME_NAMES[a + 1] for a in support)
    return (f"{name}_only" if len(support) == 1 else name), near


def _entry(*terms: float) -> dict:
    return {
        "residual": abs(math.fsum(terms)),
        "scale": math.fsum(map(abs, terms)),
    }


def _scalar_terms(profile: ProfileResult, sc: SigmaComponents) -> list:
    """Terms of sigma_a S;_a, one list per main scalar S."""
    sigma = sc.components[1:4].tolist()
    return [[s * d for s, d in zip(sigma, row)] for row in profile.v_derivs[:, 1:].tolist()]


def _first_component_terms(profile: ProfileResult, sc: SigmaComponents) -> list:
    """Terms of h_1 + sigma_a u_a, j_1 + sigma_a v_a and k_1 + sigma_a w_a."""
    sigma = sc.components[1:4].tolist()
    return [
        [f[0]] + [s * c for s, c in zip(sigma, g[1:])]
        for f, g in zip(profile.vectors[:3].tolist(), profile.vectors[3:].tolist())
    ]


def landsberg_case_conditions(
    profile: ProfileResult, sc: SigmaComponents
) -> tuple[str, bool, dict]:
    """The rescaled space is Landsberg iff these all vanish (base space
    locally Minkowski): the sigma_a S;_a rows, the first-component laws, and
    the reduced rows (S;_a alone for one supported direction, sigma_a S;_a
    over the support for two).  Returns (case, near_degenerate, residuals)."""
    case, near = case_of(sc)
    support = _support(sc)
    scalar_terms = _scalar_terms(profile, sc)
    out: dict = {}
    for name, terms in zip(SCALAR_NAMES, scalar_terms):
        out[f"landsberg:scalar:{name}"] = _entry(*terms)
    for vec, terms in zip("hjk", _first_component_terms(profile, sc)):
        out[f"landsberg:{vec}1"] = _entry(*terms)
    if len(support) == 1:
        for row, name in enumerate(SCALAR_NAMES):
            out[f"reduced:{case}:{name}"] = _entry(profile.v_derivs[row, support[0] + 1])
    elif len(support) == 2:
        for name, terms in zip(SCALAR_NAMES, scalar_terms):
            out[f"reduced:{case}:{name}"] = _entry(*(terms[a] for a in support))
    return case, near, out


def berwald_case_conditions(
    profile: ProfileResult, sc: SigmaComponents
) -> tuple[str, bool, dict]:
    """Scalar part of the Berwald conditions for the rescaled space: each
    row of B times (S;_m, S;_n, S;_p), and for one supported direction the
    ratio rows (rows of B over the two other columns) and the chains (2x2
    minors of rows (m, n) and (n, p) over those columns).

    The h/j/k part involves second-derivative data of sigma that this
    engine does not model symbolically; callers pair these residuals with
    the directly computed connection vectors of the rescaled space.
    """
    bad = {
        k: v
        for k, v in sc.extraction_residuals.items()
        if v > EXTRACTION_TOL * sc.extraction_scale
    }
    if bad:
        raise ExtractionUnreliable(
            f"spray-difference extraction residuals above tolerance: {bad}"
        )
    case, near = case_of(sc)
    support = _support(sc)
    # B: minus the symmetrised (m, n, p) block of the connection difference
    s5, s6, s7, s8, s9, s10 = sc.spray_block().tolist()
    rows = ((-s5, s6, s7), (s6, -s8, -s9), (s7, -s9, -s10))
    v_derivs = profile.v_derivs[:, 1:].tolist()
    out: dict = {}
    for name, d_s in zip(SCALAR_NAMES, v_derivs):
        for direction, row in zip("mnp", rows):
            out[f"berwald:{name}:{direction}"] = _entry(*[b * d for b, d in zip(row, d_s)])
    if len(support) == 1:
        i, j = (c for c in range(3) if c != support[0])
        for name, d_s in zip(SCALAR_NAMES, v_derivs):
            for label, row in zip("abc", rows):
                out[f"ratio:{case}:{name}:{label}"] = _entry(row[i] * d_s[i], row[j] * d_s[j])
        for label, (upper, lower) in zip("ab", zip(rows, rows[1:])):
            out[f"ratio:{case}:chain:{label}"] = _entry(
                upper[i] * lower[j], -(upper[j] * lower[i])
            )
    return case, near, out


# -- invariance suite --------------------------------------------------------


def invariance_check(
    base: ProfileResult, lifted: ProfileResult, sc: SigmaComponents
) -> dict:
    """Residuals of the rescaling laws relating the two spaces at a point."""
    es = math.exp(sc.sigma_value)
    bpe, lpe = base.pe, lifted.pe

    out: dict = {}
    if base.gauge_tag != lifted.gauge_tag:
        out["gauge_match"] = float("nan")
    else:
        out["gauge_match"] = 0.0
    for idx, name in enumerate(_FRAME_NAMES):
        out[f"covector_scale:{name}"] = float(
            np.abs(lifted.e_flat[idx] - es * base.e_flat[idx]).max()
        )
        out[f"vector_scale:{name}"] = float(
            np.abs(lifted.e[idx] - base.e[idx] / es).max()
        )
    out["metric_scale"] = float(np.abs(lpe.metric.g - es**2 * bpe.metric.g).max())
    out["inverse_metric_scale"] = float(
        np.abs(lpe.metric.g_inv - bpe.metric.g_inv / es**2).max()
    )
    out["torsion_scale"] = float(np.abs(lpe.cartan.C - es**2 * bpe.cartan.C).max())
    out["mixed_torsion_invariance"] = float(
        np.abs(lpe.connection.Cmix - bpe.connection.Cmix).max()
    )
    gaps = np.abs(lifted.scalars - base.scalars).tolist()
    for name, gap in zip(SCALAR_NAMES, gaps):
        out[f"main_scalar:{name}"] = gap

    # barred first components and l-derivatives: the Landsberg terms summed
    # left to right, over e^sigma
    for vec, barred, terms in zip(
        "hjk", lifted.vectors[:3, 0].tolist(), _first_component_terms(base, sc)
    ):
        out[f"{vec}bar1_law"] = abs(barred - reduce(add, terms) / es)
    if _flat_in_chart(bpe):
        scalar_terms = _scalar_terms(base, sc)
        for row, (name, terms) in enumerate(zip(SCALAR_NAMES, scalar_terms)):
            out[f"scalar_hderiv_l_law:{name}"] = abs(
                lifted.h_derivs[row, 0] - reduce(add, terms) / es
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
    return float(np.abs(pe.dx_g).max()) < 1e-9


def evaluate_point(base: ProfileResult, lifted: ProfileResult) -> PointConformalReport:
    """The report at one point from the frame profiles of its base and
    rescaled space (as :func:`evaluate_points` makes them)."""
    sc = sigma_components(base, lifted)
    case, near, lands = landsberg_case_conditions(base, sc)
    _, _, berw = berwald_case_conditions(base, sc)

    direct = {
        **{f"{name}_bar": row for name, row in zip("hjk", lifted.vectors[:3].tolist())},
        "scalar_hderiv_l_bar": lifted.h_derivs[:, 0].tolist(),
        **hderiv_measurement(lifted.pe),
    }
    inv = invariance_check(base, lifted, sc)
    return PointConformalReport(
        x=base.pe.x, y=base.pe.y, case=case, near_degenerate=near, sigma=sc,
        landsberg_residuals=lands, berwald_residuals=berw,
        direct_barred=direct, invariance_residuals=inv,
    )


def evaluate_points(spec: MetricSpec, points: Sequence) -> list:
    """One report per (x, y) point of a conformal spec (MissingSigma for
    any other).  The base and the rescaled space of every point are
    evaluated as one stack (:func:`classify.point_records`); a point that
    cannot be evaluated gets an ``eval_error`` record, and a point whose
    base or rescaled frame is refused (the base is judged first) a
    ``frame_error`` record."""
    pair_from_spec(spec)

    def spaces(x, y) -> tuple:
        base = geometry.point_eval(spec.base, x, y)
        # e^sigma times the base's jet of L; the lifted tensors are measured from it
        return base, geometry.point_eval(spec, x, y, base)

    return point_records(
        points, spaces,
        lambda i, pes, outcomes: evaluate_point(*map(profile_of, outcomes)),
        lambda i, x, y, fields: PointConformalReport(x=x, y=y, **fields),
    )


@dataclass(frozen=True)
class ConformalAudit:
    reports: list
    landsberg_summary: dict
    berwald_summary: dict


def audit_pair(spec: MetricSpec, plan: SamplePlan, tol: float = DEFAULT_TOL) -> ConformalAudit:
    """Co-occurrence audit of a conformal spec over sampled points: do the
    condition blocks agree with the directly measured character of the
    rescaled space?"""
    check_tol(tol)
    reports = evaluate_points(spec, metrics.sample_domain(spec.domain, plan))

    def summarise(kind: str) -> dict:
        counts = dict.fromkeys(AGREEMENT + ("skipped_frame_errors",), 0)
        for rep in reports:
            if rep.eval_error is not None:
                continue
            if rep.frame_error is not None:
                counts["skipped_frame_errors"] += 1
                continue
            rows = rep.landsberg_residuals if kind == "landsberg" else rep.berwald_residuals
            flags = [judge("condition_row", row, tol) for row in rows.values()]
            if kind == "berwald":
                flags.append(judge("barred_hjk", rep.direct_barred, tol))
            measured = judge(f"{kind}_measured", rep.direct_barred, tol)
            counts[agreement(all3(flags), measured)] += 1
        return counts

    return ConformalAudit(
        reports=reports,
        landsberg_summary=summarise("landsberg"),
        berwald_summary=summarise("berwald"),
    )

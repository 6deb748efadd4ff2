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
(likewise j/v, k/w); Berwald asks B (S;_m, S;_n, S;_p) = 0.  Each system
is one record per point, ``evaluate_point(...).condition_rows[kind]``:
its row labels, and per row |sum of its terms| as the residual and the
sum of their absolute values as the scale, two arrays that the audit
judges and the CLI report writes out label by label.  Ratio-type
conditions are cross-multiplied (2x2 minors), so a vanishing scalar
derivative never divides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import geometry, metrics
from .classify import (
    AGREEMENT, DEFAULT_TOL, agreement, all3, check_tol, hderiv_measurement, judge, point_records,
    profile_of,
)
from .frame import PAIR_A, PAIR_B, PAIRS, ProfileResult, SCALAR_NAMES
from .geometry import PointEval
from .jets import Finsler4Error, SpecError, derivative_tensor, ring_sum
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


class ExtractionUnreliable(Finsler4Error):
    pass


class MissingSigma(SpecError):
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


# sigma5..sigma10 are the entries (a, b) of the symmetrised (m, n, p) block
# of the connection difference, with these signs; B is minus that block
_BLOCK_A = np.array([1, 1, 1, 2, 2, 3])
_BLOCK_B = np.array([1, 2, 3, 2, 3, 3])
_BLOCK_SIGN = np.array([1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
_B_SLOTS = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])  # spray-block index of B[a, b]
_EXTRACTION_KEYS = (
    # the off-diagonal pairs of the (m, n, p) block, in the order mn, mp, np
    *(f"sym_{_FRAME_NAMES[a]}{_FRAME_NAMES[b]}" for a, b in PAIRS),
    *(f"antisym_l{_FRAME_NAMES[b]}" for b in (1, 2, 3)),
    *(f"grad_slot_{name}" for name in _FRAME_NAMES),
    "spray_transvection",
)


def sigma_components(base: ProfileResult, lifted: ProfileResult) -> SigmaComponents:
    """Frame components of the sigma gradient plus the six scalars read off
    the frame-projected nonlinear-connection difference, from the profiles
    of the base and the rescaled space at the same point; sigma and its
    gradient are read off ``lifted.pe.sigma`` (MissingSigma if it has none)."""
    base_pe, lifted_pe = base.pe, lifted.pe
    y = base_pe.y

    sigma = lifted_pe.sigma
    if sigma is None:
        raise MissingSigma("the spec carries no conformal factor")
    grad = derivative_tensor(sigma, 1, 0)
    s_frame = base.e @ grad  # sigma_alpha = (d sigma)_i e_(alpha)^i

    L0 = base_pe.L
    delta_n = lifted_pe.spray.N - base_pe.spray.N
    D = base.e_flat @ delta_n @ base.e.T / L0
    sym = 0.5 * (D + D.T)
    sym.flat[::5] = D.flat[::5]  # the diagonal as it is, not halved twice

    # transvecting the connection difference recovers the spray difference:
    # delta G^i = sigma0 y^i - (L^2/2) grad-sharp^i, with sigma0 = grad . y
    sigma0 = float(grad @ y)
    grad_sharp = base_pe.metric.g_inv @ grad
    delta_g_pred = sigma0 * y - 0.5 * L0**2 * grad_sharp
    delta_g = lifted_pe.spray.G - base_pe.spray.G
    # the (m, n, p) block is symmetric, the l row and column antisymmetric,
    # and the l row holds the frame gradient
    resid = np.concatenate([
        np.abs(D[PAIR_A, PAIR_B] - D[PAIR_B, PAIR_A]),
        np.abs(D[0, 1:] + D[1:, 0]),
        np.abs(D[0] - s_frame),
        [np.abs(delta_g - delta_g_pred).max() / (1.0 + np.abs(delta_g_pred).max())],
    ])

    return SigmaComponents(
        components=np.concatenate([s_frame, _BLOCK_SIGN * sym[_BLOCK_A, _BLOCK_B]]),
        sigma_value=sigma.base, sigma_grad=grad,
        extraction_residuals=dict(zip(_EXTRACTION_KEYS, resid.tolist())),
        extraction_scale=1.0 + float(np.abs(D).max()),
    )


def _case(sc: SigmaComponents) -> tuple[str, bool, tuple]:
    """(case, near_degenerate, support): the support is the indices into
    (m, n, p) where |sigma2|, |sigma3|, |sigma4| >= TAU_SIGMA."""
    sizes = [abs(c) for c in sc.components[1:4].tolist()]
    near = any(TAU_SIGMA / 2 < c < 2 * TAU_SIGMA for c in sizes)
    support = tuple(a for a, c in enumerate(sizes) if c >= TAU_SIGMA)
    if not support:
        if abs(sc.components[0]) < TAU_SIGMA:
            return CASE_HOMOTHETIC, near, support
        return CASE_SUPPORTING_ONLY, near, support
    name = "_".join(_FRAME_NAMES[a + 1] for a in support)
    return (f"{name}_only" if len(support) == 1 else name), near, support


# -- condition systems as term arrays ----------------------------------------


def _condition_rows(blocks) -> dict:
    """The condition record of (labels, terms) blocks, ``terms`` an (R, T)
    array with one row of terms per label: the labels in row order, and
    per row the residual |sum| and the scale sum of |term| as two (R,)
    arrays, each sum exact over its row (``math.fsum``).
    :func:`classify.judge` reads the arrays."""
    labels = tuple(label for names, _ in blocks for label in names)
    rows = [row for _, t in blocks for row in t.tolist()]
    return {
        "labels": labels,
        "residual": np.abs([math.fsum(row) for row in rows]),
        "scale": np.array([math.fsum(map(abs, row)) for row in rows]),
    }


def _scalar_terms(profile: ProfileResult, sc: SigmaComponents) -> np.ndarray:
    """Terms of sigma_a S;_a, one row per main scalar S: (8, 3)."""
    return sc.components[1:4] * profile.v_derivs[:, 1:]


def _first_component_terms(profile: ProfileResult, sc: SigmaComponents) -> np.ndarray:
    """Terms of h_1 + sigma_a u_a, j_1 + sigma_a v_a and k_1 + sigma_a w_a:
    (3, 4)."""
    vec = profile.vectors
    terms = np.empty((3, 4))
    terms[:, 0] = vec[:3, 0]
    np.multiply(sc.components[1:4], vec[3:, 1:], out=terms[:, 1:])
    return terms


# the row labels of the blocks of the condition systems that every case has
_SCALAR_LABELS = tuple(f"landsberg:scalar:{name}" for name in SCALAR_NAMES)
_FIRST_LABELS = tuple(f"landsberg:{vec}1" for vec in "hjk")
_BERWALD_LABELS = tuple(f"berwald:{name}:{d}" for name in SCALAR_NAMES for d in "mnp")


@lru_cache(maxsize=None)
def _case_labels(case: str) -> tuple:
    """(labels of the reduced block, labels of the ratio block) at ``case``."""
    return (
        tuple(f"reduced:{case}:{name}" for name in SCALAR_NAMES),
        (*(f"ratio:{case}:{name}:{label}" for name in SCALAR_NAMES for label in "abc"),
         *(f"ratio:{case}:chain:{label}" for label in "ab")),
    )


def _landsberg(profile: ProfileResult, sc: SigmaComponents, case: tuple) -> dict:
    """The record (:func:`_condition_rows`) of the Landsberg system at the
    ``case`` (:func:`_case`).  The rescaled space is Landsberg iff its rows
    all vanish (base space locally Minkowski): the sigma_a S;_a rows, the
    first-component laws, and the reduced rows (S;_a alone for one
    supported direction, sigma_a S;_a over the support for two)."""
    case, _, support = case
    scalar_terms = _scalar_terms(profile, sc)
    blocks = [(_SCALAR_LABELS, scalar_terms),
              (_FIRST_LABELS, _first_component_terms(profile, sc))]
    if len(support) == 1:
        blocks.append((_case_labels(case)[0], profile.v_derivs[:, support[0] + 1, None]))
    elif len(support) == 2:
        blocks.append((_case_labels(case)[0], scalar_terms[:, support]))
    return _condition_rows(blocks)


def _berwald(profile: ProfileResult, sc: SigmaComponents, case: tuple) -> dict:
    """The record (:func:`_condition_rows`) of the scalar part of the
    Berwald system at the ``case`` (:func:`_case`): each row of B times
    (S;_m, S;_n, S;_p), and for one supported direction the ratio rows
    (rows of B over the two other columns) and the chains (2x2 minors of
    rows (m, n) and (n, p) over those columns).  ExtractionUnreliable if
    the spray-difference extraction is off.

    The h/j/k part involves second-derivative data of sigma that this
    engine does not model symbolically; the audit pairs these rows with
    the directly computed connection vectors of the rescaled space."""
    bad = {
        k: v
        for k, v in sc.extraction_residuals.items()
        if v > EXTRACTION_TOL * sc.extraction_scale
    }
    if bad:
        raise ExtractionUnreliable(
            f"spray-difference extraction residuals above tolerance: {bad}"
        )
    case, _, support = case
    # B: minus the symmetrised (m, n, p) block of the connection difference
    B = -(_BLOCK_SIGN * sc.spray_block())[_B_SLOTS]
    # [scalar, row of B, column]: B[row, column] S;_column
    terms = B * profile.v_derivs[:, None, 1:]
    blocks = [(_BERWALD_LABELS, terms.reshape(24, 3))]
    if len(support) == 1:
        i, j = (c for c in range(3) if c != support[0])
        chains = np.stack([B[:2, i] * B[1:, j], -(B[:2, j] * B[1:, i])], axis=1)
        blocks.append((_case_labels(case)[1],
                       np.concatenate([terms[:, :, [i, j]].reshape(24, 2), chains])))
    return _condition_rows(blocks)


# -- invariance suite --------------------------------------------------------


_FRAME_SCALE_KEYS = tuple(
    f"{kind}_scale:{name}" for name in _FRAME_NAMES for kind in ("covector", "vector")
)
_TENSOR_SCALE_KEYS = (
    "metric_scale", "inverse_metric_scale", "torsion_scale", "mixed_torsion_invariance",
    *(f"main_scalar:{name}" for name in SCALAR_NAMES),
    *(f"{vec}bar1_law" for vec in "hjk"),
)
_SCALAR_LAW_KEYS = tuple(f"scalar_hderiv_l_law:{name}" for name in SCALAR_NAMES)


def invariance_check(
    base: ProfileResult, lifted: ProfileResult, sc: SigmaComponents
) -> dict:
    """Residuals of the rescaling laws relating the two spaces at a point."""
    es = math.exp(sc.sigma_value)
    bpe, lpe = base.pe, lifted.pe

    out: dict = {"gauge_match": 0.0 if base.gauge_tag == lifted.gauge_tag else float("nan")}
    # [frame vector, covector or vector]
    scales = np.stack([np.abs(lifted.e_flat - es * base.e_flat).max(axis=1),
                       np.abs(lifted.e - base.e / es).max(axis=1)], axis=1)
    out.update(zip(_FRAME_SCALE_KEYS, scales.ravel().tolist()))
    tensors = [
        np.abs(lpe.metric.g - es**2 * bpe.metric.g).max(),
        np.abs(lpe.metric.g_inv - bpe.metric.g_inv / es**2).max(),
        np.abs(lpe.cartan.C - es**2 * bpe.cartan.C).max(),
        np.abs(lpe.connection.Cmix - bpe.connection.Cmix).max(),
        *np.abs(lifted.scalars - base.scalars),
        # barred first components: the Landsberg terms summed left to right,
        # over e^sigma
        *np.abs(lifted.vectors[:3, 0] - ring_sum(_first_component_terms(base, sc).T) / es),
    ]
    out.update(zip(_TENSOR_SCALE_KEYS, np.array(tensors).tolist()))
    if _flat_in_chart(bpe):
        # and the l-derivatives of the main scalars
        laws = np.abs(lifted.h_derivs[:, 0] - ring_sum(_scalar_terms(base, sc).T) / es)
        out.update(zip(_SCALAR_LAW_KEYS, laws.tolist()))
    return out


# -- per-point orchestration and corpus audit --------------------------------


@dataclass(frozen=True)
class PointConformalReport:
    x: np.ndarray
    y: np.ndarray
    case: Optional[str] = None
    near_degenerate: bool = False
    sigma: Optional[SigmaComponents] = None
    direct_barred: dict = field(default_factory=dict)
    invariance_residuals: dict = field(default_factory=dict)
    frame_error: Optional[str] = None
    eval_error: Optional[str] = None
    # "landsberg" and "berwald": the record of each condition system
    # (:func:`_condition_rows`), its labels with their residuals and scales
    condition_rows: dict = field(default_factory=dict, repr=False)


def _flat_in_chart(pe: PointEval) -> bool:
    return float(np.abs(pe.dx_g).max()) < 1e-9


def evaluate_point(base: ProfileResult, lifted: ProfileResult) -> PointConformalReport:
    """The report at one point from the frame profiles of its base and
    rescaled space (as :func:`evaluate_points` makes them)."""
    sc = sigma_components(base, lifted)
    case = _case(sc)
    rows = {"landsberg": _landsberg(base, sc, case), "berwald": _berwald(base, sc, case)}
    direct = {
        **{f"{name}_bar": row for name, row in zip("hjk", lifted.vectors[:3].tolist())},
        "scalar_hderiv_l_bar": lifted.h_derivs[:, 0].tolist(),
        **hderiv_measurement(lifted.pe),
    }
    inv = invariance_check(base, lifted, sc)
    return PointConformalReport(
        x=base.pe.x, y=base.pe.y, case=case[0], near_degenerate=case[1], sigma=sc,
        direct_barred=direct, invariance_residuals=inv, condition_rows=rows,
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
            flags = [judge("condition_row", rep.condition_rows[kind], tol)]
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

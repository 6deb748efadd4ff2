"""Miron frame, main scalars, and connection vectors.

The orthonormal frame {l, m, n, p} is built from the normalised
supporting element and the normalised torsion vector, completed by
metric Gram-Schmidt over the standard basis seeds in index order.  The
construction is ring-generic: run on floats it yields the frame at a
point; run on first-order jets it yields the frame fields together with
their x- and y-derivatives, which is what the connection vectors and the
scalar derivative tables require.  Discrete gauge choices (seed
selection, sign fixing) are made on base values only, so both routes
agree and the construction commutes with uniform metric rescaling.

Main scalar convention
----------------------
With M[a,b,c] = L * C(e_a, e_b, e_c) (frame components of the weighted
torsion tensor, 1-based frame labels), the eight independent components
are exposed as::

    H = M[2,2,2]   I  = M[2,3,3]   K  = M[2,4,4]   J  = M[2,2,3]
    Kp = M[2,2,4]  Jp = M[2,3,4]   Hp = M[3,3,3]   Ip = M[3,3,4]

Every other component follows from total symmetry, from C(l, ., .) = 0,
and from the torsion-trace constraints (the m-direction carries the whole
torsion trace, so H + I + K equals L times the torsion length and the
n/p traces vanish).  The mapping lives only in :data:`SCALAR_SLOTS`; tests
that do not pin the convention stick to convention-independent facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import geometry, jets
from .geometry import CartanTensorAt, MetricTensorAt, PointEval
from .jets import Finsler4Error, base_of, derivative_tensor, ring_sum

TAU_TORSION = 1e-7  # below this the torsion direction is numerically meaningless
_SEED_SKIP_TOL = 1e-6
_SIGN_TOL = 1e-9

SCALAR_NAMES = ("H", "I", "J", "K", "Hp", "Ip", "Jp", "Kp")
# 0-based frame-index triples of the independent components (see module doc)
SCALAR_SLOTS = {
    "H": (1, 1, 1),
    "I": (1, 2, 2),
    "J": (1, 1, 2),
    "K": (1, 3, 3),
    "Hp": (2, 2, 2),
    "Ip": (2, 2, 3),
    "Jp": (1, 2, 3),
    "Kp": (1, 1, 3),
}


class FrameError(Finsler4Error):
    pass


class VanishingTorsion(FrameError):
    pass


class NotPositiveDefinite(FrameError):
    pass


class DegenerateSeed(FrameError):
    pass


class VarianceMismatch(FrameError):
    pass


@dataclass(frozen=True)
class FrameBundle:
    e: np.ndarray  # rows are the contravariant vectors l, m, n, p
    e_flat: np.ndarray  # rows are the covectors g_ij e^j
    gauge_tag: dict

    @property
    def l(self) -> np.ndarray:
        return self.e[0]

    @property
    def m(self) -> np.ndarray:
        return self.e[1]

    @property
    def n(self) -> np.ndarray:
        return self.e[2]

    @property
    def p(self) -> np.ndarray:
        return self.e[3]


@dataclass(frozen=True)
class MainScalars:
    H: float
    I: float
    J: float
    K: float
    Hp: float
    Ip: float
    Jp: float
    Kp: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in SCALAR_NAMES])


@dataclass(frozen=True)
class ConnectionVectors:
    h: np.ndarray
    j: np.ndarray
    k: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray


@dataclass(frozen=True)
class ScalarProfile:
    scalars: MainScalars
    v_derivs: np.ndarray  # (8, 4): row order SCALAR_NAMES, columns frame index
    h_derivs: np.ndarray  # (8, 4)
    vectors: ConnectionVectors


@dataclass(frozen=True)
class ProfileResult:
    pe: PointEval
    frame: FrameBundle
    profile: ScalarProfile
    residuals: dict


# -- ring-generic construction ----------------------------------------------


def _ring_zero(like):
    return like * 0.0


def _frame_from_ring(g, g_inv, C, y, L):
    """Frame vectors/covectors over any ring with float/JetScalar arithmetic.

    g, g_inv: 4x4 indexable; C: 4x4x4 indexable; y: 4 ring values; L ring.
    Raises VanishingTorsion / DegenerateSeed based on base values.
    """
    l = [y[i] / L for i in range(4)]
    C_low = [
        ring_sum(C[i][j][k] * g_inv[j][k] for j in range(4) for k in range(4))
        for i in range(4)
    ]
    C_up = [ring_sum(g_inv[i][j] * C_low[j] for j in range(4)) for i in range(4)]
    q = ring_sum(C_up[i] * C_low[i] for i in range(4))
    if base_of(q) < TAU_TORSION**2:
        raise VanishingTorsion(
            f"torsion length {max(base_of(q), 0.0) ** 0.5:.3e} below {TAU_TORSION:.1e}"
        )
    C_norm = jets.sqrt(q)
    m = [C_up[i] / C_norm for i in range(4)]

    frame = [l, m]
    seeds_used: list[int] = []
    flips: list[int] = []
    for seed in range(4):
        if len(frame) == 4:
            break
        r = [_ring_zero(L) for _ in range(4)]
        r[seed] = r[seed] + 1.0
        for vec in frame:
            # g-inner product of the seed with an already-built vector
            coeff = ring_sum(g[seed][jj] * vec[jj] for jj in range(4))
            r = [ri - coeff * vi for ri, vi in zip(r, vec)]
        norm2 = ring_sum(g[i][jj] * r[i] * r[jj] for i in range(4) for jj in range(4))
        if base_of(norm2) < _SEED_SKIP_TOL**2:
            continue
        norm = jets.sqrt(norm2)
        vec = [ri / norm for ri in r]
        sign = 1.0
        for comp in vec:
            if abs(base_of(comp)) > _SIGN_TOL:
                if base_of(comp) < 0:
                    sign = -1.0
                break
        if sign < 0:
            vec = [-vi for vi in vec]
        frame.append(vec)
        seeds_used.append(seed)
        flips.append(int(sign))
    if len(frame) != 4:
        raise DegenerateSeed("ran out of seeds completing the frame")

    e_flat = [
        [ring_sum(g[i][jj] * vec[jj] for jj in range(4)) for i in range(4)]
        for vec in frame
    ]
    gauge = {"seeds": tuple(seeds_used), "sign_flips": tuple(flips)}
    return frame, e_flat, gauge


def build_miron_frame(
    metric: MetricTensorAt, cartan: CartanTensorAt, y: Sequence[float]
) -> FrameBundle:
    """Frame at a point from the already-computed tensors (float route)."""
    if not metric.positive_definite:
        raise NotPositiveDefinite("the fundamental tensor is not positive definite")
    e, e_flat, gauge = _frame_from_ring(
        metric.g, metric.g_inv, cartan.C, np.asarray(y, dtype=float), metric.L
    )
    return FrameBundle(
        e=np.array(e, dtype=float), e_flat=np.array(e_flat, dtype=float), gauge_tag=gauge
    )


def scalar_components(T: np.ndarray, variance: Sequence[str], frame: FrameBundle) -> np.ndarray:
    """Frame components of a tensor; 'up' indices contract with covectors,
    'down' indices with vectors.  The inverse contraction reconstructs T."""
    T = np.asarray(T, dtype=float)
    if T.ndim != len(variance) or not 1 <= T.ndim <= 3:
        raise VarianceMismatch(
            f"tensor of rank {T.ndim} with variance tuple of length {len(variance)}"
        )
    out = T
    for axis, var in enumerate(variance):
        if var == "up":
            mat = frame.e_flat
        elif var == "down":
            mat = frame.e
        else:
            raise VarianceMismatch(f"variance entries must be 'up' or 'down', got {var!r}")
        out = np.moveaxis(np.tensordot(mat, out, axes=(1, axis)), 0, axis)
    return out


def main_scalars(cartan: CartanTensorAt, frame: FrameBundle, L: float) -> MainScalars:
    M = L * scalar_components(cartan.C, ("down", "down", "down"), frame)
    return MainScalars(**{name: float(M[SCALAR_SLOTS[name]]) for name in SCALAR_NAMES})


# -- jet route: frame fields, scalar jets, derivative tables -----------------


def _scalar_jets(C, e, L) -> dict:
    """The eight main scalars as first-order jets in (x, y), from the C,
    frame-vector and L jets."""
    # contract the first index once per needed frame vector
    first = {
        a: [
            [ring_sum(C[i][j][k] * e[a][i] for i in range(4)) for k in range(4)]
            for j in range(4)
        ]
        for a in (1, 2)
    }
    out = {}
    for name in SCALAR_NAMES:
        a, b, c = SCALAR_SLOTS[name]
        out[name] = ring_sum(
            first[a][j][k] * e[b][j] * e[c][k] for j in range(4) for k in range(4)
        ) * L
    return out


def _connection_vectors(
    pe: PointEval, frame: FrameBundle, e_flat_jets
) -> tuple[ConnectionVectors, dict]:
    """Frame components of the h- and v-connection vectors, plus the
    residuals of the frame-derivative reconstruction identities."""
    spray, conn = pe.spray, pe.connection
    L0 = pe.L
    e = frame.e
    e_flat = frame.e_flat
    g = pe.metric.g

    cov = {
        name: geometry.covariant_derivatives(e_flat_jets[idx], spray, conn)
        for name, idx in (("l", 0), ("m", 1), ("n", 2), ("p", 3))
    }

    l_up, m_up, n_up, p_up = e
    l_lo, m_lo, n_lo, p_lo = e_flat

    h_cov = n_up @ cov["m"].h
    j_cov = p_up @ cov["m"].h
    k_cov = p_up @ cov["n"].h
    u_cov = L0 * (n_up @ cov["m"].v)
    v_cov = L0 * (p_up @ cov["m"].v)
    w_cov = L0 * (p_up @ cov["n"].v)

    def comps(covec: np.ndarray) -> np.ndarray:
        return e @ covec

    vectors = ConnectionVectors(
        h=comps(h_cov), j=comps(j_cov), k=comps(k_cov),
        u=comps(u_cov), v=comps(v_cov), w=comps(w_cov),
    )

    def mx(a) -> float:
        return float(np.max(np.abs(a)))

    residuals = {
        "l_hderiv_zero": mx(cov["l"].h),
        "l_vderiv_angular": mx(L0 * cov["l"].v - (g - np.outer(l_lo, l_lo))),
        "recon_hderiv_m": mx(cov["m"].h - (np.outer(n_lo, h_cov) + np.outer(p_lo, j_cov))),
        "recon_hderiv_n": mx(cov["n"].h - (-np.outer(m_lo, h_cov) + np.outer(p_lo, k_cov))),
        "recon_hderiv_p": mx(cov["p"].h - (-np.outer(m_lo, j_cov) - np.outer(n_lo, k_cov))),
        "recon_vderiv_m": mx(
            L0 * cov["m"].v
            - (-np.outer(l_lo, m_lo) + np.outer(n_lo, u_cov) + np.outer(p_lo, v_cov))
        ),
        "recon_vderiv_n": mx(
            L0 * cov["n"].v
            - (-np.outer(l_lo, n_lo) - np.outer(m_lo, u_cov) + np.outer(p_lo, w_cov))
        ),
        "recon_vderiv_p": mx(
            L0 * cov["p"].v
            - (-np.outer(l_lo, p_lo) - np.outer(m_lo, v_cov) - np.outer(n_lo, w_cov))
        ),
        "hderiv_m_l_component": mx(l_up @ cov["m"].h),
        "hderiv_m_m_component": mx(m_up @ cov["m"].h),
        "orthonormality": mx(e @ g @ e.T - np.eye(4)),
    }
    return vectors, residuals


def scalar_profile(pe: PointEval) -> ProfileResult:
    """Full per-point frame profile: scalars, derivative tables, vectors."""
    if not pe.metric.positive_definite:
        raise NotPositiveDefinite("the fundamental tensor is not positive definite")
    g_j, C_j, y_j, L_j = pe.frame_field_jets()
    g_inv_j = geometry._jet_matrix_inverse(g_j, geometry.FRAME_CAPS)
    e_jets, e_flat_jets, gauge = _frame_from_ring(g_j, g_inv_j, C_j, y_j, L_j)
    frame = FrameBundle(
        e=np.array([[v.base for v in row] for row in e_jets]),
        e_flat=np.array([[v.base for v in row] for row in e_flat_jets]),
        gauge_tag=gauge,
    )
    spray = pe.spray
    L0 = pe.L
    e = frame.e

    scalar_jets = _scalar_jets(C_j, e_jets, L_j)
    v_derivs = np.empty((8, 4))
    h_derivs = np.empty((8, 4))
    for row, name in enumerate(SCALAR_NAMES):
        S = scalar_jets[name]
        dy = derivative_tensor(S, 0, 1)
        delta = geometry.scalar_h_derivative(S, spray)
        v_derivs[row] = L0 * (e @ dy)
        h_derivs[row] = e @ delta

    vectors, residuals = _connection_vectors(pe, frame, e_flat_jets)
    scalars = MainScalars(**{n: scalar_jets[n].base for n in SCALAR_NAMES})
    residuals["unified_scalar_sum"] = abs(
        scalars.H + scalars.I + scalars.K - L0 * pe.cartan.C_norm
    )

    profile = ScalarProfile(
        scalars=scalars, v_derivs=v_derivs, h_derivs=h_derivs, vectors=vectors
    )
    return ProfileResult(pe=pe, frame=frame, profile=profile, residuals=residuals)

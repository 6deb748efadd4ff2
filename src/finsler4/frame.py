"""Miron frame, main scalars, and connection vectors.

The orthonormal frame {l, m, n, p} is built from the normalised
supporting element and the normalised torsion vector, completed by
metric Gram-Schmidt over the standard basis seeds in index order.  The
build runs once, on first-order jets in (x, y): every frame field is a
FRAME_CAPS coefficient array (tensor axes, then the Taylor coefficient
axis), every product is one :func:`jets.contract`, and g^-1 is
:func:`jets.inverse`.  The frame at the point is the base slice
``[..., 0]`` of these arrays; the other coefficients are the x- and
y-derivatives that the connection vectors and the scalar derivative
tables read.  Discrete gauge choices (seed selection, sign fixing) read
base values only, so the construction commutes with uniform metric
rescaling.

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
from .geometry import FRAME_CAPS, CartanTensorAt, PointEval
from .jets import Finsler4Error, JetScalar, contract

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


# -- frame fields as FRAME_CAPS coefficient arrays ---------------------------


def _rsqrt(q: np.ndarray) -> np.ndarray:
    return jets.power(JetScalar(FRAME_CAPS, q), -0.5).c


def _frame_from_ring(g, g_inv, C, y, L):
    """Frame vectors and covectors as FRAME_CAPS coefficient arrays.

    g, g_inv: (4, 4, n); C: (4, 4, 4, n); y: (4, n); L: a FRAME_CAPS jet.
    Returns e and e_flat of shape (4, 4, n), rows l, m, n, p, and the
    gauge tag.  Raises VanishingTorsion / DegenerateSeed on base values.
    """
    l = contract("i,->i", y, (1.0 / L).c, FRAME_CAPS)
    C_low = contract("ijk,jk->i", C, g_inv, FRAME_CAPS)
    C_up = contract("ij,j->i", g_inv, C_low, FRAME_CAPS)
    q = contract("i,i->", C_up, C_low, FRAME_CAPS)
    if q[0] < TAU_TORSION**2:
        raise VanishingTorsion(
            f"torsion length {max(q[0], 0.0) ** 0.5:.3e} below {TAU_TORSION:.1e}"
        )
    m = contract("i,->i", C_up, _rsqrt(q), FRAME_CAPS)

    frame = [l, m]
    seeds_used: list[int] = []
    flips: list[int] = []
    for seed in range(4):
        if len(frame) == 4:
            break
        built = np.array(frame)
        # the seed minus its g-projections on the vectors built so far
        coeffs = contract("j,aj->a", g[seed], built, FRAME_CAPS)
        r = -contract("a,ai->i", coeffs, built, FRAME_CAPS)
        r[seed, 0] += 1.0
        norm2 = contract("i,i->", r, contract("ij,j->i", g, r, FRAME_CAPS), FRAME_CAPS)
        if norm2[0] < _SEED_SKIP_TOL**2:
            continue
        vec = contract("i,->i", r, _rsqrt(norm2), FRAME_CAPS)
        # the first component clear of round-off decides the sign
        lead = vec[np.abs(vec[:, 0]) > _SIGN_TOL, 0]
        sign = -1.0 if lead.size and lead[0] < 0 else 1.0
        frame.append(sign * vec)
        seeds_used.append(seed)
        flips.append(int(sign))
    if len(frame) != 4:
        raise DegenerateSeed("ran out of seeds completing the frame")

    e = np.array(frame)
    e_flat = contract("ij,aj->ai", g, e, FRAME_CAPS)
    gauge = {"seeds": tuple(seeds_used), "sign_flips": tuple(flips)}
    return e, e_flat, gauge


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


# -- main scalars and derivative tables -------------------------------------

_SLOT_ROWS = tuple(np.array(axis) for axis in zip(*(SCALAR_SLOTS[n] for n in SCALAR_NAMES)))


def _scalar_jets(C, e, L) -> np.ndarray:
    """The eight main scalars, rows in SCALAR_NAMES order, as an (8, n)
    FRAME_CAPS coefficient array from the C, frame-vector and L jets."""
    a, b, c = (e[rows] for rows in _SLOT_ROWS)
    first = contract("ijk,si->sjk", C, a, FRAME_CAPS)
    second = contract("sjk,sj->sk", first, b, FRAME_CAPS)
    M = contract("sk,sk->s", second, c, FRAME_CAPS)
    return contract("s,->s", M, L.c, FRAME_CAPS)


def _connection_vectors(
    pe: PointEval, frame: FrameBundle, e_flat_jets
) -> tuple[ConnectionVectors, dict]:
    """Frame components of the h- and v-connection vectors, plus the
    residuals of the frame-derivative reconstruction identities."""
    L0 = pe.L
    e = frame.e
    e_flat = frame.e_flat
    g = pe.metric.g

    # [frame vector, i, k]: nabla_k of each frame covector field
    cov = geometry.covariant_derivatives(e_flat_jets, pe.spray, pe.connection)
    l_h, m_h, n_h, p_h = cov.h
    l_v, m_v, n_v, p_v = cov.v

    l_up, m_up, n_up, p_up = e
    l_lo, m_lo, n_lo, p_lo = e_flat

    h_cov = n_up @ m_h
    j_cov = p_up @ m_h
    k_cov = p_up @ n_h
    u_cov = L0 * (n_up @ m_v)
    v_cov = L0 * (p_up @ m_v)
    w_cov = L0 * (p_up @ n_v)

    def comps(covec: np.ndarray) -> np.ndarray:
        return e @ covec

    vectors = ConnectionVectors(
        h=comps(h_cov), j=comps(j_cov), k=comps(k_cov),
        u=comps(u_cov), v=comps(v_cov), w=comps(w_cov),
    )

    def mx(a) -> float:
        return float(np.max(np.abs(a)))

    residuals = {
        "l_hderiv_zero": mx(l_h),
        "l_vderiv_angular": mx(L0 * l_v - (g - np.outer(l_lo, l_lo))),
        "recon_hderiv_m": mx(m_h - (np.outer(n_lo, h_cov) + np.outer(p_lo, j_cov))),
        "recon_hderiv_n": mx(n_h - (-np.outer(m_lo, h_cov) + np.outer(p_lo, k_cov))),
        "recon_hderiv_p": mx(p_h - (-np.outer(m_lo, j_cov) - np.outer(n_lo, k_cov))),
        "recon_vderiv_m": mx(
            L0 * m_v
            - (-np.outer(l_lo, m_lo) + np.outer(n_lo, u_cov) + np.outer(p_lo, v_cov))
        ),
        "recon_vderiv_n": mx(
            L0 * n_v
            - (-np.outer(l_lo, n_lo) - np.outer(m_lo, u_cov) + np.outer(p_lo, w_cov))
        ),
        "recon_vderiv_p": mx(
            L0 * p_v
            - (-np.outer(l_lo, p_lo) - np.outer(m_lo, v_cov) - np.outer(n_lo, w_cov))
        ),
        "hderiv_m_l_component": mx(l_up @ m_h),
        "hderiv_m_m_component": mx(m_up @ m_h),
        "orthonormality": mx(e @ g @ e.T - np.eye(4)),
    }
    return vectors, residuals


def scalar_profile(pe: PointEval) -> ProfileResult:
    """Full per-point frame profile: scalars, derivative tables, vectors."""
    if not pe.metric.positive_definite:
        raise NotPositiveDefinite("the fundamental tensor is not positive definite")
    g_j, g_inv_j, C_j, y_j, L_j = pe.frame_field_jets()
    e_jets, e_flat_jets, gauge = _frame_from_ring(g_j, g_inv_j, C_j, y_j, L_j)
    frame = FrameBundle(e=e_jets[..., 0].copy(), e_flat=e_flat_jets[..., 0].copy(),
                        gauge_tag=gauge)
    L0 = pe.L
    e = frame.e

    scalar_jets = _scalar_jets(C_j, e_jets, L_j)
    derivs = geometry.scalar_derivatives(scalar_jets, pe.spray)
    v_derivs = L0 * (derivs.v @ e.T)
    h_derivs = derivs.h @ e.T

    vectors, residuals = _connection_vectors(pe, frame, e_flat_jets)
    scalars = MainScalars(**dict(zip(SCALAR_NAMES, scalar_jets[:, 0].tolist())))
    residuals["unified_scalar_sum"] = abs(
        scalars.H + scalars.I + scalars.K - L0 * pe.cartan.C_norm
    )

    profile = ScalarProfile(
        scalars=scalars, v_derivs=v_derivs, h_derivs=h_derivs, vectors=vectors
    )
    return ProfileResult(pe=pe, frame=frame, profile=profile, residuals=residuals)

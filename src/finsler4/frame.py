"""Miron frame, main scalars, and connection vectors.

The orthonormal frame {l, m, n, p} is built from the normalised
supporting element and the normalised torsion vector, completed by
metric Gram-Schmidt over the standard basis seeds in index order.  The
build runs once, on first-order jets in (x, y): every frame field is a
FRAME_CAPS coefficient array (tensor axes, then the Taylor coefficient
axis), every product is one :func:`jets.contract`, and g^-1 is
:func:`jets.solve` on the identity.  The frame at the point is the base slice
``[..., 0]`` of these arrays; the other coefficients are the x- and
y-derivatives that the connection vectors and the scalar derivative
tables read.  Discrete gauge choices (seed selection, sign fixing) read
base values only, and every refusal threshold (torsion length, seed
skip, sign) is taken relative to the scale of L, so the construction
commutes with uniform metric rescaling.

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

Connection forms
----------------
With e_a the frame covectors g_ij e_a^j, their h- and v-covariant
derivatives are two antisymmetric 4x4 matrices of covectors in the frame,
nabla e_a = sum_b e_b (x) A[a, b] with A[b, a] = -A[a, b], so
A[a, b] = e_b^i nabla e_a_i:

    h-form   A[m,n] = h     A[m,p] = j     A[n,p] = k     A[l,b] = 0
    v-form   L A[m,n] = u   L A[m,p] = v   L A[n,p] = w   L A[l,b] = e_b

The connection covectors are the (m, n, p) block entries at the frame
pairs :data:`_PAIRS`, and the vectors h, j, k, u, v, w are their frame
components.  ``recon_{h,v}deriv_{m,n,p}`` is the largest entry of
nabla e_a (L nabla e_a for the v-form) minus the model row
sum_b e_b (x) A[a, b].  The l row is checked on its own: ``l_hderiv_zero``
is |nabla_h l| and ``l_vderiv_angular`` compares L nabla_v l with the
angular metric g - l (x) l.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, jets
from .geometry import FRAME_CAPS, PointEval
from .jets import Finsler4Error, JetScalar, contract, ring_sum

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


@dataclass(frozen=True)
class FrameBundle:
    e: np.ndarray  # rows are the contravariant vectors l, m, n, p
    e_flat: np.ndarray  # rows are the covectors g_ij e^j
    gauge_tag: dict


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
    # L^2 q is the square of L |C|, which does not change when L is rescaled
    weighted = L.base**2 * q[0]
    if weighted < TAU_TORSION**2:
        raise VanishingTorsion(
            f"weighted torsion length {max(weighted, 0.0) ** 0.5:.3e} below {TAU_TORSION:.1e}"
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
        # relative to the seed's own g-length: the squared sine of its angle
        # to the vectors built so far
        if norm2[0] < _SEED_SKIP_TOL**2 * g[seed, seed, 0]:
            continue
        vec = contract("i,->i", r, _rsqrt(norm2), FRAME_CAPS)
        # the first component clear of round-off, relative to the largest,
        # decides the sign
        size = np.abs(vec[:, 0])
        lead = vec[size > _SIGN_TOL * size.max(), 0]
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


# frame pairs (a, b) of the (m, n, p) block, in the order h, j, k (u, v, w)
_PAIRS = ((1, 2), (1, 3), (2, 3))


def _connection_vectors(
    pe: PointEval, frame: FrameBundle, e_flat_jets
) -> tuple[ConnectionVectors, dict]:
    """Frame components of the h- and v-connection vectors, plus the
    residuals of the frame-derivative reconstruction identities (module
    doc, "Connection forms")."""
    L0 = pe.L
    e = frame.e
    e_flat = frame.e_flat
    g = pe.metric.g

    # [frame vector, i, k]: nabla_k of each frame covector field
    cov = geometry.covariant_derivatives(e_flat_jets, pe.spray, pe.connection)
    h_form = [e[b] @ cov.h[a] for a, b in _PAIRS]
    v_form = [L0 * (e[b] @ cov.v[a]) for a, b in _PAIRS]
    vectors = ConnectionVectors(*(e @ c for c in h_form + v_form))

    # A[form, a, b]: the h-form and L times the v-form, antisymmetric in (a, b)
    A = np.zeros((2, 4, 4, 4))
    A[1, 0, 1:] = e_flat[1:]
    for (a, b), h, v in zip(_PAIRS, h_form, v_form):
        A[:, a, b] = h, v
    A = A - A.transpose(0, 2, 1, 3)
    # rows m, n, p of the model sum_b e_b (x) A[a, b], summed in frame order
    model = ring_sum(e_flat[b, :, None] * A[:, 1:, b, None, :] for b in range(4))
    gap = np.max(np.abs(np.array([cov.h[1:], L0 * cov.v[1:]]) - model), axis=(2, 3))

    def mx(a) -> float:
        return float(np.max(np.abs(a)))

    return vectors, {
        "l_hderiv_zero": mx(cov.h[0]),
        "l_vderiv_angular": mx(L0 * cov.v[0] - (g - np.outer(e_flat[0], e_flat[0]))),
        **{
            f"recon_{kind}deriv_{name}": float(gap[f, a])
            for f, kind in enumerate("hv")
            for a, name in enumerate("mnp")
        },
        "hderiv_m_l_component": mx(e[0] @ cov.h[1]),
        "hderiv_m_m_component": mx(e[1] @ cov.h[1]),
        "orthonormality": mx(e @ g @ e.T - np.eye(4)),
    }


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

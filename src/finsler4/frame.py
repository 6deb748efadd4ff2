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

Stacks
------
:func:`scalar_profile` builds the frames of a whole stack of points
(``PointEval.stack``) at once: every frame field carries the stack axis
first, and every contraction has a leading stack label, so each member
gets the bits of its own build alone.  The stack is built as one or
refused as one: if any member's metric is not positive definite, its
torsion vanishes or its seeds run out, the stack raises that refusal,
and a seed that some members skip and others take raises
:class:`SeedsDiffer`.  The caller reruns the members one by one
(:func:`classify.evaluate_stack`), so each gets its own frame or error.
1/L and q^(-1/2) are :func:`jets.recip` and :func:`jets.power` of the
stack's L and q as one stacked :class:`jets.JetScalar`, each member's row
bit for bit as its own jet.

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


class SeedsDiffer(Finsler4Error):
    """The members of a stack skip different seeds, so no one build serves
    them all; a stack of one never raises it."""


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


def _sign(comps: list) -> float:
    """The sign that makes the first component clear of round-off (above
    _SIGN_TOL times the largest) positive; +1 if there is none."""
    size = [abs(c) for c in comps]
    if any(s != s for s in size):  # NaN: nothing is clear of it
        return 1.0
    top = _SIGN_TOL * max(size)
    lead = next((c for c, s in zip(comps, size) if s > top), 0.0)
    return -1.0 if lead < 0 else 1.0


def _complete(g, rows) -> list:
    """Metric Gram-Schmidt of the seeds 0..3 onto l and m, filling rows n
    and p of the (B, 4, 4, n) array ``rows`` in place.  Returns the picks
    taken, (seed, signs) with one sign per member.  A seed is skipped when
    every member skips it; a stack whose members disagree on a seed raises
    SeedsDiffer, and one that runs out of seeds DegenerateSeed.
    """
    caps = FRAME_CAPS
    picks: list = []
    for seed in range(4):
        built = rows[:, : len(picks) + 2]
        # the seed minus its g-projections on the vectors built so far
        coeffs = contract("zj,zaj->za", g[:, seed], built, caps)
        r = -contract("za,zai->zi", coeffs, built, caps)
        r[:, seed, 0] += 1.0
        norm2 = contract("zi,zi->z", r, contract("zij,zj->zi", g, r, caps), caps)
        # relative to the seed's own g-length: the squared sine of its angle
        # to the vectors built so far
        skip = norm2[:, 0] < _SEED_SKIP_TOL**2 * g[:, seed, seed, 0]
        if skip.all():
            continue
        if skip.any():
            raise SeedsDiffer(f"stack members disagree on skipping seed {seed}")
        vec = contract("zi,z->zi", r, jets.power(JetScalar(caps, norm2), -0.5).c, caps)
        sign = np.array([_sign(comps) for comps in vec[:, :, 0].tolist()])
        rows[:, len(picks) + 2] = sign[:, None, None] * vec
        picks.append((seed, sign))
        if len(picks) == 2:
            return picks
    raise DegenerateSeed("ran out of seeds completing the frame")


def _frame_from_ring(g, g_inv, C, y, L):
    """Frame vectors and covectors of a stack of points as FRAME_CAPS
    coefficient arrays.

    g, g_inv: (B, 4, 4, n); C: (B, 4, 4, 4, n); y: (B, 4, n); L: (B, n).
    Returns (e, e_flat, gauge_tags): e and e_flat of shape (B, 4, 4, n)
    with rows l, m, n, p, and one gauge tag per member.  Raises
    VanishingTorsion if any member's torsion vanishes, and what
    :func:`_complete` raises.  Refusals read base values only.
    """
    caps = FRAME_CAPS
    l = contract("zi,z->zi", y, jets.recip(JetScalar(caps, L)).c, caps)
    C_low = contract("zijk,zjk->zi", C, g_inv, caps)
    C_up = contract("zij,zj->zi", g_inv, C_low, caps)
    q = contract("zi,zi->z", C_up, C_low, caps)
    for L0, q0 in zip(L[:, 0].tolist(), q[:, 0].tolist()):
        # L^2 q is the square of L |C|, which does not change when L is rescaled
        weighted = L0**2 * q0
        if weighted < TAU_TORSION**2:
            raise VanishingTorsion(
                f"weighted torsion length {max(weighted, 0.0) ** 0.5:.3e} below {TAU_TORSION:.1e}"
            )
    e = np.empty(g.shape)
    e[:, 0] = l
    e[:, 1] = contract("zi,z->zi", C_up, jets.power(JetScalar(caps, q), -0.5).c, caps)
    picks = _complete(g, e)
    seeds = tuple(s for s, _ in picks)
    flips = zip(*(signs.astype(int).tolist() for _, signs in picks))
    gauges = [{"seeds": seeds, "sign_flips": f} for f in flips]
    e_flat = contract("zij,zaj->zai", g, e, caps)
    return e, e_flat, gauges


# -- main scalars and derivative tables -------------------------------------

_SLOT_ROWS = tuple(np.array(axis) for axis in zip(*(SCALAR_SLOTS[n] for n in SCALAR_NAMES)))


def _scalar_jets(C, e, L) -> np.ndarray:
    """The eight main scalars of each member, rows in SCALAR_NAMES order, as
    a (B, 8, n) FRAME_CAPS coefficient array from the C, frame-vector and L
    jets."""
    a, b, c = (e[:, rows] for rows in _SLOT_ROWS)
    first = contract("zijk,zsi->zsjk", C, a, FRAME_CAPS)
    second = contract("zsjk,zsj->zsk", first, b, FRAME_CAPS)
    M = contract("zsk,zsk->zs", second, c, FRAME_CAPS)
    return contract("zs,z->zs", M, L, FRAME_CAPS)


# frame pairs (a, b) of the (m, n, p) block, in the order h, j, k (u, v, w)
_PAIRS = ((1, 2), (1, 3), (2, 3))
_PAIR_A = [a for a, _ in _PAIRS]
_PAIR_B = [b for _, b in _PAIRS]


def _connection_vectors(L0, e, e_flat, g, e_flat_jets, spray, conn) -> tuple:
    """Frame components of the h- and v-connection vectors of a stack of
    frames, a (K, 6, 4) array in the order h, j, k, u, v, w, plus the
    residuals of the frame-derivative reconstruction identities (module
    doc, "Connection forms"), (K,) each.  ``L0`` is (K,), ``e``,
    ``e_flat`` and ``g`` (K, 4, 4)."""
    # [member, frame vector, i, k]: nabla_k of each frame covector field
    cov = geometry.covariant_derivatives(e_flat_jets, spray, conn)
    # e[b] @ cov.h[a] for every pair (a, b), as vector-matrix products
    h_form = (e[:, _PAIR_B, None] @ cov.h[:, _PAIR_A])[:, :, 0]
    v_form = L0[:, None, None] * (e[:, _PAIR_B, None] @ cov.v[:, _PAIR_A])[:, :, 0]
    vectors = (e[:, None] @ np.concatenate([h_form, v_form], axis=1)[..., None])[..., 0]

    # A[member, form, a, b]: the h-form and L times the v-form, antisymmetric in (a, b)
    A = np.zeros((len(e), 2, 4, 4, 4))
    A[:, 1, 0, 1:] = e_flat[:, 1:]
    A[:, 0, _PAIR_A, _PAIR_B] = h_form
    A[:, 1, _PAIR_A, _PAIR_B] = v_form
    A = A - A.transpose(0, 1, 3, 2, 4)
    # rows m, n, p of the model sum_b e_b (x) A[a, b], summed in frame order
    model = ring_sum(
        e_flat[:, None, None, b, :, None] * A[:, :, 1:, b, None, :] for b in range(4)
    )
    derivs = (cov.h[:, 1:], L0[:, None, None, None] * cov.v[:, 1:])
    gap = [np.abs(d - model[:, f]).max(axis=(2, 3)) for f, d in enumerate(derivs)]

    def mx(a):
        return np.abs(a).max(axis=tuple(range(1, a.ndim)))

    l_flat = e_flat[:, 0]
    angular = g - l_flat[:, :, None] * l_flat[:, None, :]
    # e[l] @ cov.h[m] and e[m] @ cov.h[m]
    m_h = (e[:, :2, None] @ cov.h[:, 1, None])[:, :, 0]
    return vectors, {
        "l_hderiv_zero": mx(cov.h[:, 0]),
        "l_vderiv_angular": mx(L0[:, None, None] * cov.v[:, 0] - angular),
        **{
            f"recon_{kind}deriv_{name}": gap[f][:, a]
            for f, kind in enumerate("hv")
            for a, name in enumerate("mnp")
        },
        "hderiv_m_l_component": mx(m_h[:, 0]),
        "hderiv_m_m_component": mx(m_h[:, 1]),
        "orthonormality": mx(e @ g @ e.transpose(0, 2, 1) - np.eye(4)),
    }


def _profiles(st: PointEval) -> list:
    """The ProfileResult of each member of the stack ``st``; raises the
    FrameError that refuses any member's frame."""
    if not st.metric.positive_definite.all():
        raise NotPositiveDefinite("the fundamental tensor is not positive definite")
    g_j, g_inv_j, C_j, y_j, L_j = st.frame_field_jets
    e_jets, e_flat_jets, gauges = _frame_from_ring(g_j, g_inv_j, C_j, y_j, L_j)
    metric, spray, conn = st.metric, st.spray, st.connection
    L0 = metric.L
    e = e_jets[..., 0].copy()
    e_flat = e_flat_jets[..., 0].copy()

    scalar_jets = _scalar_jets(C_j, e_jets, L_j)
    derivs = geometry.scalar_derivatives(scalar_jets, spray)
    e_t = e.transpose(0, 2, 1)
    v_derivs = L0[:, None, None] * (derivs.v @ e_t)
    h_derivs = derivs.h @ e_t

    vectors, residuals = _connection_vectors(L0, e, e_flat, metric.g, e_flat_jets, spray, conn)
    scalars = scalar_jets[..., 0]
    H, I, K = (scalars[:, SCALAR_NAMES.index(name)] for name in ("H", "I", "K"))
    residuals["unified_scalar_sum"] = np.abs(H + I + K - L0 * st.cartan.C_norm)
    names = list(residuals)
    rows = np.array(list(residuals.values())).T.tolist()
    return [
        ProfileResult(
            pe=member,
            frame=FrameBundle(e=e[i], e_flat=e_flat[i], gauge_tag=gauges[i]),
            profile=ScalarProfile(
                scalars=MainScalars(*scalars[i].tolist()),
                v_derivs=v_derivs[i],
                h_derivs=h_derivs[i],
                vectors=ConnectionVectors(*vectors[i]),
            ),
            residuals=dict(zip(names, rows[i])),
        )
        for i, member in enumerate(st.members)
    ]


def scalar_profile(pe: PointEval):
    """Full frame profile: scalars, derivative tables, vectors.

    For a stack (``PointEval.stack``), a list with one ProfileResult per
    member; for a lone PointEval, its ProfileResult, computed as a stack of
    one.  A refusal (NotPositiveDefinite, VanishingTorsion, DegenerateSeed,
    or SeedsDiffer for a stack whose members take different seeds) is
    raised for the whole stack.
    """
    out = _profiles(pe.as_stack())
    return out if pe.is_stack else out[0]

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
refused as one, and the refusals come in this order: a member whose
metric is not positive definite, then one whose weighted torsion length
L |C| (``L * cartan.C_norm``, read from the stack's cached stages before
any frame field is built) is below TAU_TORSION or NaN, then seeds that
run out; the stack raises that refusal, and a seed that some members
skip and others take raises :class:`SeedsDiffer`.  A NotPositiveDefinite
or VanishingTorsion names the members it refuses (``FrameError.refused``),
so the caller builds the rest again as one stack; after any other refusal
it reruns the members one by one (:func:`classify.evaluate_stack`), so
each gets its own frame or error.
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
pairs :data:`PAIRS`, and the vectors h, j, k, u, v, w are their frame
components.  ``recon_{h,v}deriv_{m,n,p}`` is the largest entry of
nabla e_a (L nabla e_a for the v-form) minus the model row
sum_b e_b (x) A[a, b].  The l row is checked on its own: ``l_hderiv_zero``
is |nabla_h l| and ``l_vderiv_angular`` compares L nabla_v l with the
angular metric g - l (x) l.  The profile keeps nabla_h e_a and nabla_v
e_a of all four rows (``cov_h``, ``cov_v``), from one
:func:`covariant_derivatives` call over the stack.  No verdict reads the
residuals, so a profile builds them when they are first read
(``ProfileResult.residuals``), from those arrays and the stages its
PointEval has cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jets
from .geometry import ConnectionAt, PointEval, SprayAt, _y_jets
from .jets import (
    DegreeCaps, Finsler4Error, InvalidArgument, JetScalar, contract, derivative_tensor, einsum,
    ring_sum,
)

# the frame ring: the frame build reads values and first derivatives only,
# and cutting the total keeps every stored coefficient bit for bit
FRAME_CAPS = DegreeCaps(1, 1, 1)
TAU_TORSION = 1e-7  # below this the torsion direction is numerically meaningless
_SEED_SKIP_TOL = 1e-6
_SIGN_TOL = 1e-9

SCALAR_NAMES = ("H", "I", "J", "K", "Hp", "Ip", "Jp", "Kp")
VECTOR_NAMES = ("h", "j", "k", "u", "v", "w")
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
    """A refused frame.  ``refused`` maps the stack index of each member the
    error refuses to the message that member's error carries when it is
    built alone; it is empty for a refusal not told member by member."""

    def __init__(self, message: str, refused: dict | None = None):
        super().__init__(message)
        self.refused = refused or {}


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
class ProfileResult:
    pe: PointEval
    e: np.ndarray  # rows are the contravariant vectors l, m, n, p
    e_flat: np.ndarray  # rows are the covectors g_ij e^j
    gauge_tag: dict
    scalars: np.ndarray  # (8,): order SCALAR_NAMES
    v_derivs: np.ndarray  # (8, 4): row order SCALAR_NAMES, columns frame index
    h_derivs: np.ndarray  # (8, 4)
    vectors: np.ndarray  # (6, 4): row order VECTOR_NAMES, columns frame index
    cov_h: np.ndarray  # (4, 4, 4): [a, i, k] = nabla_k e_a_i, horizontal
    cov_v: np.ndarray  # (4, 4, 4): the same, vertical

    @cached_property
    def residuals(self) -> dict:
        """The frame's consistency residuals (:func:`_frame_residuals`),
        built when first read."""
        return _frame_residuals(self)


# -- frame fields as FRAME_CAPS coefficient arrays ---------------------------


def _field_jets(st: PointEval) -> tuple:
    """g, g^-1, C, y and L of the stack ``st`` as FRAME_CAPS coefficient
    arrays, stack axis first: first-order x/y information for
    differentiating frame fields through the whole build."""
    caps = FRAME_CAPS
    g = 0.5 * derivative_tensor(st._L2, 0, 2, caps, st._caps)
    g_inv = jets.solve(g, st.metric.g_inv, jets.identity(4, caps)[None], caps)
    C = 0.25 * derivative_tensor(st._L2, 0, 3, caps, st._caps)
    y = _y_jets(st.y, caps)
    L = derivative_tensor(st._L, 0, 0, caps, st._caps)  # L truncated to caps
    return g, g_inv, C, y, L


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
    with rows l, m, n, p, and one gauge tag per member.  The torsion of
    every member must not vanish (:func:`_profiles` refuses it first);
    raises what :func:`_complete` raises, which reads base values only.
    """
    caps = FRAME_CAPS
    l = contract("zi,z->zi", y, jets.recip(JetScalar(caps, L)).c, caps)
    C_low = contract("zijk,zjk->zi", C, g_inv, caps)
    C_up = contract("zij,zj->zi", g_inv, C_low, caps)
    q = contract("zi,zi->z", C_up, C_low, caps)
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


# -- covariant derivatives --------------------------------------------------


@dataclass(frozen=True)
class CovariantDerivatives:
    h: np.ndarray  # horizontal: delta-derivative with connection terms
    v: np.ndarray  # vertical: plain y-derivative with torsion terms


def scalar_derivatives(fields: np.ndarray, spray: SprayAt) -> CovariantDerivatives:
    """Covariant derivatives of a stack of scalar fields, given as a
    FRAME_CAPS coefficient array of shape S + T + (n,), where S is the
    stack shape of ``spray`` (empty for a lone point); results have shape
    S + T + (4,): delta_k f = d_xk f - N^r_k d_yr f, and d_yk f."""
    dx = derivative_tensor(fields, 1, 0, f_caps=FRAME_CAPS)
    dy = derivative_tensor(fields, 0, 1, f_caps=FRAME_CAPS)
    N = spray.N
    extra = dy.ndim - N.ndim  # axes of T beyond the one the matmul rows run over
    if extra > 0:
        N = N.reshape(N.shape[:-2] + (1,) * extra + (4, 4))
    return CovariantDerivatives(h=dx - dy @ N, v=dy)


def covariant_derivatives(field, spray: SprayAt, conn: ConnectionAt) -> CovariantDerivatives:
    """Horizontal and vertical covariant derivatives of a stack T of covector
    fields, given as a FRAME_CAPS coefficient array of shape S + T + (4, n),
    one jet per lower component, where S is the stack shape of ``spray``
    and ``conn`` (at most one axis); the results have shape S + T + (4, 4),
    [..., i, k] = nabla_k X_i.  Scalar fields go through scalar_derivatives.
    """
    field = np.asarray(field, dtype=float)
    if field.ndim < 2 or field.shape[-2] != 4:
        raise InvalidArgument(f"covector fields need four components, got shape {field.shape}")
    cov = scalar_derivatives(field, spray)
    vals = field[..., 0]
    z = "z" * (conn.F.ndim - 3)
    spec = f"{z}...r,{z}rik->{z}...ik"
    h = cov.h - einsum(spec, vals, conn.F)
    v = cov.v - einsum(spec, vals, conn.Cmix)
    return CovariantDerivatives(h=h, v=v)


# frame pairs (a, b) of the (m, n, p) block, in the order h, j, k (u, v, w)
PAIRS = ((1, 2), (1, 3), (2, 3))
PAIR_A = [a for a, _ in PAIRS]
PAIR_B = [b for _, b in PAIRS]


def _forms(L0, e, cov_h, cov_v) -> tuple:
    """The h-form and L times the v-form at the frame pairs :data:`PAIRS`,
    (K, 3, 4) each, from the covariant derivatives ``cov_h`` and ``cov_v``
    of the four covector fields ([member, a, i, k] = nabla_k e_a_i).
    ``L0`` is (K,), ``e`` (K, 4, 4)."""
    # e[b] @ cov_h[a] for every pair (a, b), as vector-matrix products
    h_form = (e[:, PAIR_B, None] @ cov_h[:, PAIR_A])[:, :, 0]
    v_form = L0[:, None, None] * (e[:, PAIR_B, None] @ cov_v[:, PAIR_A])[:, :, 0]
    return h_form, v_form


def _frame_residuals(prof: "ProfileResult") -> dict:
    """The residuals of the frame-derivative reconstruction identities
    (module doc, "Connection forms"), the orthonormality of the frame and
    the torsion-trace sum H + I + K - L |C| of one profile, as floats, from
    its covariant derivatives and the stages its PointEval has cached, as a
    stack of one."""
    pe = prof.pe
    L0, g = np.array([pe.L]), pe.metric.g[None]
    e, e_flat = prof.e[None], prof.e_flat[None]
    # [member, frame vector, i, k]: nabla_k of each frame covector field
    cov_h, cov_v = prof.cov_h[None], prof.cov_v[None]
    h_form, v_form = _forms(L0, e, cov_h, cov_v)

    # A[member, form, a, b]: the h-form and L times the v-form, antisymmetric in (a, b)
    A = np.zeros((1, 2, 4, 4, 4))
    A[:, 1, 0, 1:] = e_flat[:, 1:]
    A[:, 0, PAIR_A, PAIR_B] = h_form
    A[:, 1, PAIR_A, PAIR_B] = v_form
    A = A - A.transpose(0, 1, 3, 2, 4)
    # rows m, n, p of the model sum_b e_b (x) A[a, b], summed in frame order
    model = ring_sum(
        e_flat[:, None, None, b, :, None] * A[:, :, 1:, b, None, :] for b in range(4)
    )
    derivs = (cov_h[:, 1:], L0[:, None, None, None] * cov_v[:, 1:])
    gap = [np.abs(d - model[:, f]).max(axis=(2, 3)) for f, d in enumerate(derivs)]

    def mx(a):
        return np.abs(a).max(axis=tuple(range(1, a.ndim)))

    l_flat = e_flat[:, 0]
    angular = g - l_flat[:, :, None] * l_flat[:, None, :]
    # e[l] @ cov_h[m] and e[m] @ cov_h[m]
    m_h = (e[:, :2, None] @ cov_h[:, 1, None])[:, :, 0]
    H, I, K = (prof.scalars[None, SCALAR_NAMES.index(name)] for name in ("H", "I", "K"))
    out = {
        "l_hderiv_zero": mx(cov_h[:, 0]),
        "l_vderiv_angular": mx(L0[:, None, None] * cov_v[:, 0] - angular),
        **{
            f"recon_{kind}deriv_{name}": gap[f][:, a]
            for f, kind in enumerate("hv")
            for a, name in enumerate("mnp")
        },
        "hderiv_m_l_component": mx(m_h[:, 0]),
        "hderiv_m_m_component": mx(m_h[:, 1]),
        "orthonormality": mx(e @ g @ e.transpose(0, 2, 1) - np.eye(4)),
        "unified_scalar_sum": np.abs(H + I + K - L0 * pe.cartan.C_norm),
    }
    return {name: value.item() for name, value in out.items()}


def _profiles(st: PointEval) -> list:
    """The ProfileResult of each member of the stack ``st``; raises the
    FrameError that refuses any member's frame.  NotPositiveDefinite and
    VanishingTorsion are decided from the stack's cached stages, before any
    frame field is built."""
    indefinite = np.flatnonzero(~st.metric.positive_definite).tolist()
    if indefinite:
        msg = "the fundamental tensor is not positive definite"
        raise NotPositiveDefinite(msg, dict.fromkeys(indefinite, msg))
    L0 = st.L
    # L |C| does not change when L is rescaled; a NaN length is refused too
    length = L0 * st.cartan.C_norm
    short = np.flatnonzero(~(length >= TAU_TORSION)).tolist()
    if short:
        refused = {
            i: f"weighted torsion length {length[i]:.3e} below {TAU_TORSION:.1e}" for i in short
        }
        raise VanishingTorsion(refused[short[0]], refused)
    g_j, g_inv_j, C_j, y_j, L_j = _field_jets(st)
    e_jets, e_flat_jets, gauges = _frame_from_ring(g_j, g_inv_j, C_j, y_j, L_j)
    e = e_jets[..., 0].copy()
    e_flat = e_flat_jets[..., 0].copy()

    scalar_jets = _scalar_jets(C_j, e_jets, L_j)
    derivs = scalar_derivatives(scalar_jets, st.spray)
    e_t = e.transpose(0, 2, 1)
    v_derivs = L0[:, None, None] * (derivs.v @ e_t)
    h_derivs = derivs.h @ e_t

    # [member, frame covector, i, k]: nabla_k e_a_i of all four rows at once
    cov = covariant_derivatives(e_flat_jets, st.spray, st.connection)
    # frame components of the h- and v-connection vectors, in VECTOR_NAMES order
    h_form, v_form = _forms(L0, e, cov.h, cov.v)
    vectors = (e[:, None] @ np.concatenate([h_form, v_form], axis=1)[..., None])[..., 0]
    scalars = scalar_jets[..., 0].copy()
    return [
        ProfileResult(
            pe=member, e=e[i], e_flat=e_flat[i], gauge_tag=gauges[i], scalars=scalars[i],
            v_derivs=v_derivs[i], h_derivs=h_derivs[i], vectors=vectors[i],
            cov_h=cov.h[i], cov_v=cov.v[i],
        )
        for i, member in enumerate(st.members)
    ]


def scalar_profile(pe: PointEval):
    """Full frame profile: scalars, derivative tables, vectors.

    For a stack (``PointEval.stack``), a list with one ProfileResult per
    member; for a lone PointEval, its ProfileResult, computed as a stack of
    one.  A refusal (NotPositiveDefinite, VanishingTorsion, DegenerateSeed,
    or SeedsDiffer for a stack whose members take different seeds) is
    raised for the whole stack; a NotPositiveDefinite or VanishingTorsion
    names the members it refuses in ``refused``.
    """
    out = _profiles(pe.as_stack())
    return out if pe.is_stack else out[0]

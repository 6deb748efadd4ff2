"""Coordinate-tensor computations at points of the slit tangent bundle.

One jet evaluation of L^2 per point feeds the fundamental tensor, the
Cartan torsion tensor, the geodesic spray with its nonlinear connection,
the Cartan horizontal connection, and the horizontal derivatives of the
torsion tensor that decide Berwald/Landsberg character.

Index conventions (all arrays are plain float ndarrays):
    g[i, j]            fundamental tensor, g^ = g_inv
    C[i, j, k]         totally symmetric torsion tensor (all indices down)
    G[i]               spray coefficients
    N[i, j]            nonlinear connection, dG^i / dy^j
    G_hess3[i, h, j, k] third y-derivatives of G^i (zero iff spray quadratic)
    F[i, j, k]         horizontal connection F^i_{jk}
    Cmix[i, j, k]      C^i_{jk} = g^{ir} C_{rjk}

Stacks
------
Every stage runs over a leading stack axis: ``PointEval.stack(members)``
joins the jets of several points (of one metric or of several, such as
the two spaces of a conformal pair) without evaluating L again, and each
of its stages computes all members at once.  A stage of a stack returns
its arrays with the stack axis first (``stack.metric.g`` has shape
``(B, 4, 4)``, ``stack.cartan.C_norm`` shape ``(B,)``), and hands every member
its own slice as that member's cached value, so a reader of a member
recomputes nothing.  A lone PointEval is computed as a stack of one, by
the same code.  Each stage is a per-member formula: jet products go
through :func:`jets.contract` with a leading label, float contractions
through NumPy's einsum (``jets.einsum``) with a leading label or a stacked
``matmul`` of the same per-member shape, axis permutations are
``transpose`` views, and ``np.linalg`` works matrix by matrix.  So
every member comes out bit for bit as when it is evaluated alone.  A
stage that fails for one member (a singular metric) raises for the
stack, and the caller reruns the members one by one, each from
:meth:`PointEval.as_stack`, which keeps the stages the member has
cached (``classify.evaluate_stack``).

A stack whose members all have an L^2 jet of x-degree bound 0
(``L2_jet.deg[0] == 0``: L does not depend on x, as for a locally
Minkowski metric in an adapted chart) is x-free, and its ``dx_g``,
``spray``, ``connection.F`` and ``cartan_h_derivatives`` are zeros of their
stacked shapes, computed from nothing (Bao-Chern-Shen 2000: the spray,
the Cartan connection and the torsion h-derivatives of an x-free L
vanish).  This keeps every bit: the jet ring never writes a coefficient
that the degree bound rules out, so on such a stack the general formulas
read +0.0 x-derivatives only, and their sums, started at +0.0, come out
+0.0 too.  ``metric``, ``cartan``, ``connection.Cmix`` and the frame are
computed as for any stack, and the zero stages still read ``metric``
first, so a singular g raises as on the general path.  A stack with one
member that may depend on x takes the general path for all its members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import jets, metrics
from .jets import (
    DegreeCaps, Finsler4Error, InvalidArgument, contract, derivative_tensor, einsum,
)
from .metrics import MetricSpec

# master caps: one x-derivative beside four y-derivatives covers every
# tensor except the cubic spray test, whose route through the inverse
# metric consumes five y-derivatives of L^2; no reader goes past total
# degree 5.  Cutting the total keeps every stored coefficient bit for bit.
MASTER_CAPS = DegreeCaps(1, 5, 5)
_SPRAY_CAPS = DegreeCaps(0, 3)

_SINGULAR_GUARD = 1e-12


class SingularMetric(Finsler4Error):
    pass


@dataclass(frozen=True)
class MetricTensorAt:
    g: np.ndarray
    g_inv: np.ndarray
    positive_definite: bool


@dataclass(frozen=True)
class CartanTensorAt:
    C: np.ndarray
    C_vec: np.ndarray  # C_i = C_ijk g^{jk}
    C_norm: float  # g-length of C_vec; NaN when the g-square is negative


@dataclass(frozen=True)
class SprayAt:
    G: np.ndarray
    N: np.ndarray
    G_hess3: np.ndarray


@dataclass(frozen=True)
class ConnectionAt:
    F: np.ndarray
    Cmix: np.ndarray


def _zip_leaves(fn, values):
    """fn of the matching leaves (arrays or numbers) of one or more stage
    values of one shape: a tuple of values, a frozen dataclass of them, or
    a leaf.  :func:`_stage` slices a stack's value for each member with it,
    and :meth:`PointEval.stack` stacks the members' values."""
    first = values[0]
    if isinstance(first, tuple):
        return tuple(_zip_leaves(fn, v) for v in zip(*values))
    if hasattr(first, "__dataclass_fields__"):
        fields = zip(*(vars(v).values() for v in values))
        return type(first)(*(_zip_leaves(fn, v) for v in fields))
    return fn(values)


# names of the PointEval stages, in definition order
_STAGES: list = []


def _stage(compute: Callable) -> cached_property:
    """A PointEval stage: ``compute(stack)`` runs once for all members of
    a stack and each member caches its own slice; a lone PointEval runs
    it as a stack of one."""
    name = compute.__name__

    def get(self):
        members = self._stack_members
        if members is None:
            getattr(self.as_stack(), name)
            return self.__dict__[name]
        value = compute(self)
        for b, member in enumerate(members):
            # a per-member number becomes a Python float or bool, as a lone
            # evaluation returns it
            member.__dict__[name] = _zip_leaves(
                lambda leaves: leaves[0][b] if leaves[0].ndim > 1 else leaves[0][b].item(),
                (value,),
            )
        return value

    get.__name__ = name
    get.__doc__ = compute.__doc__
    _STAGES.append(name)
    return cached_property(get)


def _length(square: float) -> float:
    """The square root of a g-square, NaN when it is negative beyond
    round-off."""
    if -1e-18 < square < 0:
        square = 0.0
    return math.sqrt(square) if square >= 0 else math.nan


def _y_jets(y: np.ndarray, caps: DegreeCaps) -> np.ndarray:
    """The direction variables y1..y4 of each point of a (B, 4) array as a
    (B, 4, n) coefficient array."""
    out = caps.tables.units[None, 4:].repeat(len(y), axis=0)
    out[:, :, 0] = y
    return out


class PointEval:
    """All tensors of one metric at one point, computed lazily and shared,
    or of a stack of such points (see the module doc, "Stacks").

    For a conformal spec, ``base`` may be the PointEval of its base metric
    at the same point: its L jet is rescaled instead of evaluated again.
    Every tensor is still measured from this space's own jet of L^2.
    """

    def __init__(
        self,
        spec: MetricSpec,
        x: Sequence[float],
        y: Sequence[float],
        base: "PointEval | None" = None,
    ):
        self.spec = spec
        self.x = metrics.point_components("x", x)
        self.y = metrics.point_components("y", y)
        if base is not None and (base.spec != spec.base or not (
            np.array_equal(base.x, self.x) and np.array_equal(base.y, self.y)
        )):
            raise InvalidArgument("base must evaluate the base metric at the same point")
        if spec.base is None:
            self.L_jet = metrics.eval_L(spec, self.x, self.y, MASTER_CAPS)
        else:
            base_L = None if base is None else base.L_jet
            self.sigma, self.L_jet = metrics._lift(spec, self.x, self.y, MASTER_CAPS, base_L)
        if self.L_jet.base <= 0:
            raise metrics.DomainViolation("fundamental function not positive here")
        self.L2_jet = metrics.guarded(lambda: self.L_jet * self.L_jet, "the jet of L^2")
        self.L = self.L_jet.base

    @classmethod
    def stack(cls, members: Sequence["PointEval"]) -> "PointEval":
        """One PointEval over the given lone PointEvals, which may belong to
        different metrics; L is not evaluated again.  ``x``, ``y`` and ``L``
        of a stack carry the stack axis first, and ``spec`` is None.  A
        stage that every member has cached is the stack's too.

        If every member's L^2 jet has x-degree bound 0, the stack is
        x-free: ``dx_g``, ``spray``, ``connection.F`` and
        ``cartan_h_derivatives`` are zeros, read from no jet, and equal
        bit for bit to what the general formulas give on such jets, which
        sum +0.0 terms only (module doc, "Stacks")."""
        members = tuple(members)
        if not members or any(m.is_stack for m in members):
            raise InvalidArgument("a stack is made of one or more lone PointEvals")
        caps = members[0].L_jet.caps
        if any(m.L_jet.caps is not caps and m.L_jet.caps != caps for m in members):
            raise InvalidArgument("stack members carry jets of different caps")
        st = cls.__new__(cls)
        st.spec = None
        st._stack_members = members
        st._caps = caps
        st.x = np.array([m.x for m in members])
        st.y = np.array([m.y for m in members])
        st.L = np.array([m.L for m in members])
        st._L = np.array([m.L_jet.c for m in members])
        st._L2 = np.array([m.L2_jet.c for m in members])
        # no member's L^2 jet may hold an x-derivative (module doc, "Stacks")
        st._x_free = all(m.L2_jet.deg[0] == 0 for m in members)
        cached = [m.__dict__ for m in members]
        for name in _STAGES:
            if name in cached[0] and all(name in c for c in cached):
                st.__dict__[name] = _zip_leaves(np.array, [c[name] for c in cached])
        return st

    # the members of a stack; a lone PointEval keeps None (not itself, which
    # would make every PointEval a reference cycle)
    _stack_members: tuple | None = None
    # a lone PointEval of a conformal spec keeps the jet of sigma its L is built from
    sigma: jets.JetScalar | None = None

    @property
    def members(self) -> tuple:
        return self._stack_members or (self,)

    @property
    def is_stack(self) -> bool:
        return self._stack_members is not None

    def as_stack(self) -> "PointEval":
        """This stack, or for a lone PointEval a new stack of one that holds
        the stages this PointEval has already cached."""
        return self if self.is_stack else PointEval.stack([self])

    @_stage
    def metric(self) -> MetricTensorAt:
        g = 0.5 * derivative_tensor(self._L2, 0, 2, f_caps=self._caps)
        eig = np.linalg.eigvalsh(g)
        pos = []
        for row in eig.tolist():
            size = [abs(v) for v in row]
            # relative to the largest eigenvalue, so a rescaled g is judged alike
            if min(size) <= _SINGULAR_GUARD * max(size):
                raise SingularMetric(
                    f"metric eigenvalue {min(size):.3e} below guard of largest {max(size):.3e}"
                )
            pos.append(min(row) > 0)
        g_inv = np.linalg.inv(g)
        return MetricTensorAt(g=g, g_inv=g_inv, positive_definite=np.array(pos))

    @_stage
    def cartan(self) -> CartanTensorAt:
        C = 0.25 * derivative_tensor(self._L2, 0, 3, f_caps=self._caps)
        g_inv = self.metric.g_inv
        C_vec = einsum("zijk,zjk->zi", C, g_inv)
        square = (C_vec[:, None, :] @ g_inv @ C_vec[:, :, None])[:, 0, 0]
        C_norm = np.array([_length(v) for v in square.tolist()])
        return CartanTensorAt(C=C, C_vec=C_vec, C_norm=C_norm)

    @_stage
    def spray(self) -> SprayAt:
        g_inv = self.metric.g_inv  # a singular g raises here, x-free or not
        if self._x_free:
            B = len(self.y)
            return SprayAt(G=np.zeros((B, 4)), N=np.zeros((B, 4, 4)),
                           G_hess3=np.zeros((B, 4, 4, 4, 4)))
        # G^i of each member as a (B, 4, n) coefficient array at _SPRAY_CAPS,
        # deep enough for three more y-derivatives
        caps, L2 = _SPRAY_CAPS, self._L2
        g = 0.5 * derivative_tensor(L2, 0, 2, caps, self._caps)
        dx = derivative_tensor(L2, 1, 0, caps, self._caps)
        dxdy = derivative_tensor(L2, 1, 1, caps, self._caps)  # [k, r]: d_xk d_yr
        # E_r = y^k d_xk d_yr L^2 - d_xr L^2, and G^i = g^ir E_r / 4
        e_vec = contract("zk,zkr->zr", _y_jets(self.y, caps), dxdy, caps) - dx
        gj = 0.25 * jets.solve(g, g_inv, e_vec, caps)
        N = derivative_tensor(gj, 0, 1, f_caps=caps)
        hess = derivative_tensor(gj, 0, 3, f_caps=caps)
        return SprayAt(G=gj[..., 0].copy(), N=N, G_hess3=hess)

    @_stage
    def dx_g(self) -> np.ndarray:
        """dxg[k, i, j] = x_k-derivative of g_ij."""
        if self._x_free:
            return np.zeros((len(self.y), 4, 4, 4))
        return 0.5 * derivative_tensor(self._L2, 1, 2, f_caps=self._caps)

    @_stage
    def connection(self) -> ConnectionAt:
        g_inv = self.metric.g_inv
        C = self.cartan.C
        Cmix = einsum("zir,zrjk->zijk", g_inv, C)
        if self._x_free:
            return ConnectionAt(F=np.zeros_like(Cmix), Cmix=Cmix)
        N = self.spray.N
        # delta_j g_rk = d_j g_rk - N^m_j * dy_m g_rk, with dy g = 2C
        delta_g = self.dx_g - 2.0 * einsum("zmj,zrkm->zjrk", N, C)
        # [z, j, r, k] + delta_g[z, k, r, j] - delta_g[z, r, j, k]
        sym = delta_g + delta_g.transpose(0, 3, 2, 1) - delta_g.transpose(0, 2, 1, 3)
        F = 0.5 * einsum("zir,zjrk->zijk", g_inv, sym)
        return ConnectionAt(F=F, Cmix=Cmix)

    @_stage
    def cartan_h_derivatives(self):
        """(C_h[i,j,k,h], C_h transvected by y) for the classification tests."""
        if self._x_free:
            self.metric  # a singular g raises, as on the general path
            B = len(self.y)
            return np.zeros((B, 4, 4, 4, 4)), np.zeros((B, 4, 4, 4))
        C = self.cartan.C
        N = self.spray.N
        F = self.connection.F
        dC_x = 0.25 * derivative_tensor(self._L2, 1, 3, f_caps=self._caps)  # [h, i, j, k]
        dC_y = 0.25 * derivative_tensor(self._L2, 0, 4, f_caps=self._caps)
        # dC_x[z, h, i, j, k] moved to [z, i, j, k, h]
        delta_C = dC_x.transpose(0, 2, 3, 4, 1) - einsum("zmh,zmijk->zijkh", N, dC_y)
        C_h = (
            delta_C
            - einsum("zrjk,zrih->zijkh", C, F)
            - einsum("zirk,zrjh->zijkh", C, F)
            - einsum("zijr,zrkh->zijkh", C, F)
        )
        C_0 = einsum("zijkh,zh->zijk", C_h, self.y)
        return C_h, C_0


def point_eval(spec: MetricSpec, x, y, base: PointEval | None = None) -> PointEval:
    return PointEval(spec, x, y, base)


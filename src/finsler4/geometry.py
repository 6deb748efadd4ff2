"""Coordinate-tensor computations at a point of the slit tangent bundle.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import jets, metrics
from .jets import (
    DegreeCaps, Finsler4Error, InvalidArgument, contract, derivative_tensor,
)
from .metrics import MetricSpec

# master caps: one x-derivative beside four y-derivatives covers every
# tensor except the cubic spray test, whose route through the inverse
# metric consumes five y-derivatives of L^2; no reader goes past total
# degree 5.  The frame build reads values and first derivatives only.
# Cutting the total keeps every stored coefficient bit for bit.
MASTER_CAPS = DegreeCaps(1, 5, 5)
FRAME_CAPS = DegreeCaps(1, 1, 1)
_SPRAY_CAPS = DegreeCaps(0, 3)

_SINGULAR_GUARD = 1e-12


class GeometryError(Finsler4Error):
    pass


class SingularMetric(GeometryError):
    pass


@dataclass(frozen=True)
class MetricTensorAt:
    g: np.ndarray
    g_inv: np.ndarray
    L: float
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


def _y_jets(y: np.ndarray, caps: DegreeCaps) -> np.ndarray:
    """The direction variables y1..y4 as a (4, n) coefficient array."""
    return np.array([jets.variable(4 + k, y[k], caps).c for k in range(4)])


class PointEval:
    """All tensors of one metric at one point, computed lazily and shared.

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
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        base_L = None
        if base is not None:
            if base.spec != spec.base or not (
                np.array_equal(base.x, self.x) and np.array_equal(base.y, self.y)
            ):
                raise InvalidArgument("base must evaluate the base metric at the same point")
            base_L = base.L_jet
        self.L_jet = metrics.eval_L(spec, self.x, self.y, MASTER_CAPS, base_L)
        if self.L_jet.base <= 0:
            raise metrics.DomainViolation("fundamental function not positive here")
        with np.errstate(all="ignore"):  # overflow becomes inf, checked below
            self.L2_jet = self.L_jet * self.L_jet
        if not np.all(np.isfinite(self.L2_jet.c)):
            raise metrics.DomainViolation("the jet of L^2 is not finite here")
        self.L = self.L_jet.base

    @cached_property
    def metric(self) -> MetricTensorAt:
        g = 0.5 * derivative_tensor(self.L2_jet, 0, 2)
        eig = np.linalg.eigvalsh(g)
        size = np.abs(eig)
        # relative to the largest eigenvalue, so a rescaled g is judged alike
        if size.min() <= _SINGULAR_GUARD * size.max():
            raise SingularMetric(
                f"metric eigenvalue {size.min():.3e} below guard of largest {size.max():.3e}"
            )
        g_inv = np.linalg.inv(g)
        pos = bool(np.all(eig > 0))
        return MetricTensorAt(g=g, g_inv=g_inv, L=self.L, positive_definite=pos)

    @cached_property
    def cartan(self) -> CartanTensorAt:
        C = 0.25 * derivative_tensor(self.L2_jet, 0, 3)
        g_inv = self.metric.g_inv
        C_vec = np.einsum("ijk,jk->i", C, g_inv)
        square = float(C_vec @ g_inv @ C_vec)
        if square < 0 and square > -1e-18:
            square = 0.0
        C_norm = float(np.sqrt(square)) if square >= 0 else float("nan")
        return CartanTensorAt(C=C, C_vec=C_vec, C_norm=C_norm)

    @cached_property
    def _spray_jets(self) -> np.ndarray:
        """G^i as a (4, n) coefficient array at _SPRAY_CAPS, deep enough for
        three more y-derivatives."""
        caps = _SPRAY_CAPS
        g = 0.5 * derivative_tensor(self.L2_jet, 0, 2, caps)
        dx = derivative_tensor(self.L2_jet, 1, 0, caps)
        dxdy = derivative_tensor(self.L2_jet, 1, 1, caps)  # [k, r]: d_xk d_yr
        # E_r = y^k d_xk d_yr L^2 - d_xr L^2, and G^i = g^ir E_r / 4
        e_vec = contract("k,kr->r", _y_jets(self.y, caps), dxdy, caps) - dx
        return 0.25 * jets.solve(g, self.metric.g_inv, e_vec, caps)

    @cached_property
    def spray(self) -> SprayAt:
        gj = self._spray_jets
        N = derivative_tensor(gj, 0, 1, f_caps=_SPRAY_CAPS)
        hess = derivative_tensor(gj, 0, 3, f_caps=_SPRAY_CAPS)
        return SprayAt(G=gj[:, 0].copy(), N=N, G_hess3=hess)

    @cached_property
    def dx_g(self) -> np.ndarray:
        """dxg[k, i, j] = x_k-derivative of g_ij."""
        return 0.5 * derivative_tensor(self.L2_jet, 1, 2)

    @cached_property
    def connection(self) -> ConnectionAt:
        g_inv = self.metric.g_inv
        C = self.cartan.C
        N = self.spray.N
        # delta_j g_rk = d_j g_rk - N^m_j * dy_m g_rk, with dy g = 2C
        delta_g = self.dx_g - 2.0 * np.einsum("mj,rkm->jrk", N, C)
        sym = (
            delta_g
            + np.einsum("krj->jrk", delta_g)
            - np.einsum("rjk->jrk", delta_g)
        )
        F = 0.5 * np.einsum("ir,jrk->ijk", g_inv, sym)
        Cmix = np.einsum("ir,rjk->ijk", g_inv, C)
        return ConnectionAt(F=F, Cmix=Cmix)

    @cached_property
    def cartan_h_derivatives(self):
        """(C_h[i,j,k,h], C_h transvected by y) for the classification tests."""
        C = self.cartan.C
        N = self.spray.N
        F = self.connection.F
        dC_x = 0.25 * derivative_tensor(self.L2_jet, 1, 3)  # [h, i, j, k]
        dC_y = 0.25 * derivative_tensor(self.L2_jet, 0, 4)
        delta_C = np.einsum("hijk->ijkh", dC_x) - np.einsum(
            "mh,mijk->ijkh", N, dC_y
        )
        C_h = (
            delta_C
            - np.einsum("rjk,rih->ijkh", C, F)
            - np.einsum("irk,rjh->ijkh", C, F)
            - np.einsum("ijr,rkh->ijkh", C, F)
        )
        C_0 = np.einsum("ijkh,h->ijk", C_h, self.y)
        return C_h, C_0

    def frame_field_jets(self):
        """g, g^-1, C and y as FRAME_CAPS coefficient arrays, and L as a
        FRAME_CAPS jet: first-order x/y information for differentiating
        frame fields through the whole build."""
        g = 0.5 * derivative_tensor(self.L2_jet, 0, 2, FRAME_CAPS)
        g_inv = jets.solve(g, self.metric.g_inv, jets.identity(4, FRAME_CAPS), FRAME_CAPS)
        C = 0.25 * derivative_tensor(self.L2_jet, 0, 3, FRAME_CAPS)
        y = _y_jets(self.y, FRAME_CAPS)
        L = jets.restrict(self.L_jet, FRAME_CAPS)
        return g, g_inv, C, y, L


def point_eval(spec: MetricSpec, x, y, base: PointEval | None = None) -> PointEval:
    return PointEval(spec, x, y, base)


# -- covariant derivatives --------------------------------------------------


@dataclass(frozen=True)
class CovariantDerivatives:
    h: np.ndarray  # horizontal: delta-derivative with connection terms
    v: np.ndarray  # vertical: plain y-derivative with torsion terms


def scalar_derivatives(
    fields: np.ndarray, spray: SprayAt, caps: DegreeCaps = FRAME_CAPS
) -> CovariantDerivatives:
    """Covariant derivatives of a stack of scalar fields, given as a
    coefficient array of shape S + (n,) at ``caps``; results have shape
    S + (4,): delta_k f = d_xk f - N^r_k d_yr f, and d_yk f."""
    dx = derivative_tensor(fields, 1, 0, f_caps=caps)
    dy = derivative_tensor(fields, 0, 1, f_caps=caps)
    return CovariantDerivatives(h=dx - dy @ spray.N, v=dy)


def covariant_derivatives(field, spray: SprayAt, conn: ConnectionAt) -> CovariantDerivatives:
    """Horizontal and vertical covariant derivatives of a stack S of covector
    fields, given as a FRAME_CAPS coefficient array of shape S + (4, n), one
    jet per lower component; the results have shape S + (4, 4),
    [..., i, k] = nabla_k X_i.  Scalar fields go through scalar_derivatives.
    """
    field = np.asarray(field, dtype=float)
    if field.ndim < 2 or field.shape[-2] != 4:
        raise InvalidArgument(f"covector fields need four components, got shape {field.shape}")
    cov = scalar_derivatives(field, spray)
    vals = field[..., 0]
    h = cov.h - np.einsum("...r,rik->...ik", vals, conn.F)
    v = cov.v - np.einsum("...r,rik->...ik", vals, conn.Cmix)
    return CovariantDerivatives(h=h, v=v)

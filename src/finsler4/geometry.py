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
from typing import Sequence, Union

import numpy as np

from . import jets, metrics
from .jets import DegreeCaps, Finsler4Error, InvalidArgument, JetScalar, derivative_tensor
from .metrics import MetricSpec

# master caps: one x-derivative beside four y-derivatives covers every
# tensor except the cubic spray test, whose route through the inverse
# metric consumes five y-derivatives of L^2
MASTER_CAPS = DegreeCaps(1, 5)
FRAME_CAPS = DegreeCaps(1, 1)
_SPRAY_CAPS = DegreeCaps(0, 3)

_DET_GUARD = 1e-12


class GeometryError(Finsler4Error):
    pass


class SingularMetric(GeometryError):
    pass


class InsufficientJetDepth(GeometryError):
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


def _jet_matrix_inverse(m, caps: DegreeCaps):
    """Gauss-Jordan inverse of a 4x4 matrix of jets (partial pivoting on
    base values; pivots must have nonzero base)."""
    n = 4
    aug = [[m[i][j] for j in range(n)] + [jets.const(1.0 if i == j else 0.0, caps)
                                          for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col].base))
        if abs(aug[pivot][col].base) == 0.0:
            raise SingularMetric("jet matrix inverse hit a zero pivot")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_piv = 1.0 / aug[col][col]
        aug[col] = [entry * inv_piv for entry in aug[col]]
        for row in range(n):
            if row == col:
                continue
            factor = aug[row][col]
            if abs(factor.base) == 0.0 and not np.any(factor.c):
                continue
            aug[row] = [a - factor * b for a, b in zip(aug[row], aug[col])]
    return [row[n:] for row in aug]


class PointEval:
    """All tensors of one metric at one point, computed lazily and shared."""

    def __init__(self, spec: MetricSpec, x: Sequence[float], y: Sequence[float]):
        self.spec = spec
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.L_jet = metrics.eval_L(spec, self.x, self.y, MASTER_CAPS)
        if self.L_jet.base <= 0:
            raise metrics.DomainViolation("fundamental function not positive here")
        self.L2_jet = self.L_jet * self.L_jet
        self.L = self.L_jet.base

    @cached_property
    def metric(self) -> MetricTensorAt:
        g = 0.5 * derivative_tensor(self.L2_jet, 0, 2)
        row_norms = np.linalg.norm(g, axis=1)
        scale = float(np.exp(np.mean(np.log(np.maximum(row_norms, 1e-300)))))
        det = float(np.linalg.det(g))
        if abs(det) <= _DET_GUARD * max(scale, 1e-300):
            raise SingularMetric(f"metric determinant {det:.3e} below guard")
        g_inv = np.linalg.inv(g)
        pos = bool(np.all(np.linalg.eigvalsh(g) > 0))
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
    def _spray_jets(self):
        """G^i as jets deep enough for three more y-derivatives."""
        g_jets = 0.5 * derivative_tensor(self.L2_jet, 0, 2, _SPRAY_CAPS)
        g_inv_jets = _jet_matrix_inverse(g_jets, _SPRAY_CAPS)
        y_jets = [jets.variable(4 + k, self.y[k], _SPRAY_CAPS) for k in range(4)]
        dx = derivative_tensor(self.L2_jet, 1, 0, _SPRAY_CAPS)
        dxdy = derivative_tensor(self.L2_jet, 1, 1, _SPRAY_CAPS)
        e_vec = []
        for r in range(4):
            acc = -dx[r]
            for k in range(4):
                acc = acc + y_jets[k] * dxdy[k, r]
            e_vec.append(acc)
        return [
            sum((g_inv_jets[i][r] * e_vec[r] for r in range(4)),
                jets.const(0.0, _SPRAY_CAPS)) * 0.25
            for i in range(4)
        ]

    @cached_property
    def spray(self) -> SprayAt:
        gj = self._spray_jets
        G = np.array([gj[i].base for i in range(4)])
        N = np.array([derivative_tensor(gi, 0, 1) for gi in gj])
        hess = np.array([derivative_tensor(gi, 0, 3) for gi in gj])
        return SprayAt(G=G, N=N, G_hess3=hess)

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
        """g, C, y, and L as FRAME_CAPS jets with first-order x/y information,
        the inputs for differentiating frame fields through the whole build."""
        g = 0.5 * derivative_tensor(self.L2_jet, 0, 2, FRAME_CAPS)
        C = 0.25 * derivative_tensor(self.L2_jet, 0, 3, FRAME_CAPS)
        y = [jets.variable(4 + k, self.y[k], FRAME_CAPS) for k in range(4)]
        L = jets.restrict(self.L_jet, FRAME_CAPS)
        return g, C, y, L


def point_eval(spec: MetricSpec, x, y) -> PointEval:
    return PointEval(spec, x, y)


# -- covariant derivatives --------------------------------------------------

Field = Union[JetScalar, Sequence[JetScalar]]


@dataclass(frozen=True)
class CovariantDerivatives:
    h: np.ndarray  # horizontal: delta-derivative with connection terms
    v: np.ndarray  # vertical: plain y-derivative with torsion terms


def _require_depth(jet: JetScalar) -> None:
    if jet.caps.x_max < 1 or jet.caps.y_max < 1:
        raise InsufficientJetDepth(
            f"field jets need one x- and one y-derivative, got caps {jet.caps}"
        )


def scalar_h_derivative(field: JetScalar, spray: SprayAt) -> np.ndarray:
    _require_depth(field)
    dx = derivative_tensor(field, 1, 0)
    dy = derivative_tensor(field, 0, 1)
    return dx - spray.N.T @ dy


def covariant_derivatives(
    field: Field, spray: SprayAt, conn: ConnectionAt
) -> CovariantDerivatives:
    """Horizontal and vertical covariant derivatives.

    A single jet is treated as a scalar; a sequence of four jets as a
    covector field (one jet per lower component).
    """
    if isinstance(field, JetScalar):
        _require_depth(field)
        h = scalar_h_derivative(field, spray)
        v = derivative_tensor(field, 0, 1)
        return CovariantDerivatives(h=h, v=v)
    comps = list(field)
    if len(comps) != 4:
        raise InvalidArgument("covector fields need exactly four components")
    for c in comps:
        _require_depth(c)
    vals = np.array([c.base for c in comps])
    dx = np.array([derivative_tensor(c, 1, 0) for c in comps])
    dy = np.array([derivative_tensor(c, 0, 1) for c in comps])
    delta = dx - dy @ spray.N  # delta_k X_i = d_k X_i - N^r_k dy_r X_i
    h = delta - np.einsum("r,rik->ik", vals, conn.F)
    v = dy - np.einsum("r,rik->ik", vals, conn.Cmix)
    return CovariantDerivatives(h=h, v=v)

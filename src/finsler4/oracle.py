"""Independent ground truth via central finite differences.

Everything here differentiates plain float evaluations of L^2; no jet
code is on this path.  It exists to cross-validate the jet pipeline in
tests and in the ``selftest`` CLI command, so clarity beats speed.

Steps are chosen per derivative order (balancing truncation against
rounding for second-order central stencils), optionally sharpened by one
level of Richardson extrapolation, and clamped so stencils never leave
the metric's validity cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional, Sequence

import numpy as np

from . import metrics
from .jets import Finsler4Error, OrderExceedsCaps
from .metrics import MetricSpec

_EPS = np.finfo(float).eps

MAX_ORDER = 3


class StencilLeavesDomain(Finsler4Error):
    pass


@dataclass(frozen=True)
class FDConfig:
    """Central differences, O(step^2) per stencil, O(step^4) after one
    Richardson extrapolation.

    With an explicit relative ``step`` the scheme is evaluated exactly
    once (plus the half-step companion when ``richardson`` is on).  With
    ``step=None`` the step descends a geometric ladder and the entry with
    the smallest neighbour-disagreement error estimate wins; no single
    fixed step balances truncation against rounding across all metric
    families at third order.
    """

    step: Optional[float] = None
    richardson: bool = True


# step ladder for the adaptive default: relative anchor, ratio 2, depth 8
_LADDER_ANCHOR = 0.02
_LADDER_LEVELS = 8


# offsets (in units of h) and weights of second-order central stencils
_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


def _stencil_eval(
    f: Callable[[np.ndarray], float],
    at: np.ndarray,
    vars_orders: list,
    steps: np.ndarray,
) -> float:
    total = 0.0
    axes = [_STENCILS[order] for _, order in vars_orders]
    for combo in product(*axes):
        z = at.copy()
        weight = 1.0
        for (slot, order), (offset, w) in zip(vars_orders, combo):
            z[slot] += offset * steps[slot]
            weight *= w / steps[slot] ** order
        total += weight * f(z)
    return total


def _clamped_steps(
    at: np.ndarray, vars_orders: list, h_rel: float, room: Optional[np.ndarray]
) -> np.ndarray:
    reach = max(max(abs(o) for o, _ in _STENCILS[deg]) for _, deg in vars_orders)
    steps = np.zeros(len(at))
    for slot, _ in vars_orders:
        h = h_rel * (1.0 + abs(at[slot]))
        if room is not None and np.isfinite(room[slot]):
            if room[slot] <= 0:
                raise StencilLeavesDomain(f"no room to differentiate slot {slot}")
            h = min(h, 0.2 * room[slot] / reach)
        steps[slot] = h
    return steps


def fd_partial(
    f: Callable[[np.ndarray], float],
    at: Sequence[float],
    order,
    cfg: FDConfig = FDConfig(),
    room: Optional[np.ndarray] = None,
) -> float:
    """Central-difference mixed partial of f at `at`.

    `order` is an 8-tuple (or mapping slot->degree) with total order <= 3.
    `room` optionally bounds how far the stencil may move each variable.
    """
    at = np.asarray(at, dtype=float)
    if isinstance(order, dict):
        full = [0] * len(at)
        for slot, deg in order.items():
            full[slot] = deg
        order = tuple(full)
    order = tuple(int(d) for d in order)
    total = sum(order)
    if total == 0:
        return f(at)
    if total > MAX_ORDER:
        raise OrderExceedsCaps(
            f"finite-difference depth is {MAX_ORDER}; got total order {total}"
        )
    vars_orders = [(slot, deg) for slot, deg in enumerate(order) if deg > 0]

    if cfg.step is not None:
        if cfg.step <= 0:
            raise ValueError("finite-difference step must be positive")
        steps = _clamped_steps(at, vars_orders, cfg.step, room)
        d_h = _stencil_eval(f, at, vars_orders, steps)
        if not cfg.richardson:
            return d_h
        d_h2 = _stencil_eval(f, at, vars_orders, steps / 2.0)
        return (4.0 * d_h2 - d_h) / 3.0

    # adaptive ladder: exact halving keeps every extrapolation ratio at 2
    steps0 = _clamped_steps(at, vars_orders, _LADDER_ANCHOR, room)
    d_vals = [
        _stencil_eval(f, at, vars_orders, steps0 / 2.0**i)
        for i in range(_LADDER_LEVELS)
    ]
    if not cfg.richardson:
        # walk the ladder while the neighbour disagreement keeps shrinking;
        # growth past the best estimate means rounding noise took over
        best, best_est = d_vals[0], float("inf")
        for i in range(len(d_vals) - 1):
            est = abs(d_vals[i] - d_vals[i + 1])
            if est < best_est:
                best_est, best = est, d_vals[i + 1]
            elif est > 2.0 * best_est:
                break
        return best

    # polynomial extrapolation over the ladder with error tracking; each
    # tableau entry is compared with its parents and the best estimate wins
    best, best_est = d_vals[0], float("inf")
    prev_row = [d_vals[0]]
    for i in range(1, len(d_vals)):
        row = [d_vals[i]]
        fac = 4.0
        for j in range(1, i + 1):
            t = (row[j - 1] * fac - prev_row[j - 1]) / (fac - 1.0)
            fac *= 4.0
            est = max(abs(t - row[j - 1]), abs(t - prev_row[j - 1]))
            row.append(t)
            if est <= best_est:
                best_est, best = est, t
        if i > 2 and abs(row[-1] - prev_row[-1]) >= 2.0 * best_est:
            break
        prev_row = row
    return best


# -- tensor recomputation ---------------------------------------------------


@dataclass(frozen=True)
class OracleTensors:
    g: np.ndarray
    g_inv: np.ndarray
    C: np.ndarray
    G: np.ndarray
    N: np.ndarray


def oracle_tensors(
    spec: MetricSpec,
    x: Sequence[float],
    y: Sequence[float],
    cfg: FDConfig = FDConfig(),
) -> OracleTensors:
    """Fundamental tensors, spray, and nonlinear connection from finite
    differences of L^2 alone (maximum depth three)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    at = np.concatenate([x, y])
    room = spec.domain.stencil_radius(y)

    def f2(z: np.ndarray) -> float:
        return metrics.eval_L_value(spec, z[:4], z[4:]) ** 2

    def d(order: dict) -> float:
        return fd_partial(f2, at, order, cfg, room)

    g = np.empty((4, 4))
    for i in range(4):
        for j in range(i, 4):
            g[i, j] = g[j, i] = 0.5 * d({4 + i: 1, 4 + j: 1} if i != j else {4 + i: 2})

    C = np.empty((4, 4, 4))
    for i in range(4):
        for j in range(i, 4):
            for k in range(j, 4):
                order: dict = {}
                for slot in (4 + i, 4 + j, 4 + k):
                    order[slot] = order.get(slot, 0) + 1
                val = 0.25 * d(order)
                for p in ((i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)):
                    C[p] = val

    g_inv = np.linalg.inv(g)

    d_x = np.array([d({r: 1}) for r in range(4)])
    d_xy = np.array([[d({k: 1, 4 + r: 1}) for r in range(4)] for k in range(4)])
    e_vec = y @ d_xy - d_x  # E_r = y^k d_k dy_r L^2 - d_r L^2
    G = 0.25 * g_inv @ e_vec

    # N^i_j by differentiating the spray formula itself, keeping every
    # finite-difference application at depth <= 3
    d_xyy = np.empty((4, 4, 4))
    for k in range(4):
        for r in range(4):
            for j in range(r, 4):
                order = {k: 1}
                for slot in (4 + r, 4 + j):
                    order[slot] = order.get(slot, 0) + 1
                d_xyy[k, r, j] = d_xyy[k, j, r] = d(order)
    de_vec = d_xy.T + np.einsum("k,krj->rj", y, d_xyy) - d_xy
    dg_inv = -2.0 * np.einsum("ia,abj,br->irj", g_inv, C, g_inv)
    N = 0.25 * (np.einsum("irj,r->ij", dg_inv, e_vec) + g_inv @ de_vec)
    return OracleTensors(g=g, g_inv=g_inv, C=C, G=G, N=N)


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """max |a-b| scaled by the larger magnitude, guarded near zero."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = 1.0 + max(np.max(np.abs(a)), np.max(np.abs(b)))
    return float(np.max(np.abs(a - b)) / scale)

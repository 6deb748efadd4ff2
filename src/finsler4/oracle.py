"""Independent ground truth via central finite differences.

Everything here differentiates plain float evaluations of L^2; no jet
code is on this path.  It exists to cross-validate the jet pipeline in
tests and in the ``selftest`` CLI command.

The differentiated function ``f`` takes an ``(8, M)`` block of points,
variables first (rows x1..x4, y1..y4), and returns the ``M`` values at
its columns; it must act on each column independently, as a NumPy ufunc
expression or :func:`metrics.eval_L_value` does.  :func:`fd_partials`
stacks every stencil point of every requested partial and every step
into one block, so each call of :func:`oracle_tensors` evaluates L^2
exactly once.

The estimator is fixed: second-order central stencils on a ladder of
8 steps halving from 2% of (1 + |coordinate|), combined by a Richardson
tableau whose entry with the smallest error estimate wins.  Steps are
clamped so stencils never leave the metric's validity cone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import metrics
from .jets import Finsler4Error, InvalidArgument, OrderExceedsCaps, multi, order_degrees
from .metrics import MetricSpec

MAX_ORDER = 3


class StencilLeavesDomain(Finsler4Error):
    pass


# step ladder: relative anchor, ratio 2, depth 8.  No single fixed step
# balances truncation against rounding across all metric families at third
# order, so every level is evaluated and the Richardson tableau picks one
_LADDER_ANCHOR = 0.02
_LADDER_LEVELS = 8


# offsets (in units of h) and weights of second-order central stencils
_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


class _StencilPlan(NamedTuple):
    """Every stencil point of a list of orders, at every step level.

    Rows are stencil points: order-major, then level-major (a zero order
    has one level and one point), then along the tensor-product stencil
    of the order.  Each row has one (step, weight) entry per
    differentiated variable, in slot order, padded to MAX_ORDER entries
    by (any step, 1.0).
    """

    step: np.ndarray  # (rows, MAX_ORDER) flat index into the (levels, orders, slots) steps
    weight: np.ndarray  # (rows, MAX_ORDER) stencil weights in units of h
    moves: tuple  # (rows, entries, slots, offsets) of every non-padding entry
    powers: list  # (rows, degrees) per tuple of variable degrees
    reach: np.ndarray  # (orders,) largest offset of each order, in units of h
    used: np.ndarray  # (orders, slots) the slots each order differentiates
    quotients: list  # (orders, rows as (orders, levels, points)) per stencil shape


@lru_cache(maxsize=None)
def _product_stencil(degs: tuple) -> tuple:
    """Offsets and weights, each ``(n, len(degs))``, of the tensor-product
    stencil for one derivative degree per variable."""
    combos = list(itertools.product(*(_STENCILS[deg] for deg in degs)))
    offsets = np.array([[o for o, _ in c] for c in combos], dtype=float)
    weights = np.array([[w for _, w in c] for c in combos])
    return offsets.reshape(len(combos), len(degs)), weights.reshape(len(combos), len(degs))


@lru_cache(maxsize=16)  # a plan of the 90 oracle orders holds about 0.7 MB
def _stencil_plan(orders: tuple, n_slots: int) -> _StencilPlan:
    blocks = []  # (step, offset, weight, real) of each order's rows
    powers: dict = {}
    shapes: dict = {}
    reach = np.ones(len(orders))
    used = np.zeros((len(orders), n_slots), dtype=bool)
    first = 0
    for o, order in enumerate(orders):
        slots = [s for s, d in enumerate(order) if d > 0]
        degs = tuple(order[s] for s in slots)
        offsets, weights = _product_stencil(degs)
        lev, n, pad = _LADDER_LEVELS if slots else 1, len(offsets), MAX_ORDER - len(slots)
        used[o, slots] = True
        reach[o] = np.abs(offsets).max(initial=1.0)
        rows = np.arange(first, first + lev * n)
        powers.setdefault(degs, []).append(rows)
        shapes.setdefault((lev, n), []).append((o, rows.reshape(lev, n)))
        step = (np.arange(lev) * len(orders) + o)[:, None, None] * n_slots + (slots + [0] * pad)
        blocks.append((
            np.broadcast_to(step, (lev, n, MAX_ORDER)).reshape(-1, MAX_ORDER),
            np.tile(np.pad(offsets, ((0, 0), (0, pad))), (lev, 1)),
            np.tile(np.pad(weights, ((0, 0), (0, pad)), constant_values=1.0), (lev, 1)),
            np.broadcast_to(np.arange(MAX_ORDER) < len(slots), (lev * n, MAX_ORDER)),
        ))
        first += lev * n
    step, off, wt, real = (np.concatenate(part) for part in zip(*blocks))
    rows, cols = np.nonzero(real)
    return _StencilPlan(
        step=step,
        weight=wt,
        moves=(rows, cols, step[real] % n_slots, off[real]),
        powers=[(np.concatenate(rows), np.array(degs)) for degs, rows in powers.items() if degs],
        reach=reach,
        used=used,
        quotients=[
            (np.array([o for o, _ in members]), np.array([r for _, r in members]))
            for members in shapes.values()
        ],
    )


def _stencil(at: np.ndarray, orders: tuple, room) -> tuple:
    """Every stencil point of every partial at every step level, as columns.

    Returns ``points`` of shape ``(len(at), rows)``, ``weights`` of shape
    ``(rows,)``, which turn the values at ``points`` into difference
    quotients, and the plan's ``quotients``, which group the rows into one
    quotient per order and step level.
    """
    plan = _stencil_plan(orders, len(at))
    steps0 = np.broadcast_to(_LADDER_ANCHOR * (1.0 + np.abs(at)), plan.used.shape)
    if room is not None:
        room = np.asarray(room, dtype=float)
        bounded = np.isfinite(room)
        blocked = np.argwhere(plan.used & bounded & (room <= 0))
        if len(blocked):
            raise StencilLeavesDomain(f"no room to differentiate slot {blocked[0][1]}")
        clamp = 0.2 * room / plan.reach[:, None]
        steps0 = np.where(bounded, np.minimum(steps0, clamp), steps0)
    # exact halving keeps every extrapolation ratio at 2
    steps = steps0 / 2.0 ** np.arange(_LADDER_LEVELS)[:, None, None]  # (levels, orders, slots)
    h = steps.ravel()[plan.step]
    rows, cols, slots, offsets = plan.moves
    points = np.repeat(at[:, None], len(h), axis=1)
    points[slots, rows] += offsets * h[rows, cols]
    # each power over the same (points, variables) layout as a single
    # order's stencil, which fixes its rounding
    h_pow = np.ones_like(h)
    for rows, degs in plan.powers:
        h_pow[rows, :len(degs)] = h[rows, :len(degs)] ** degs
    return points, np.prod(plan.weight / h_pow, axis=1), plan.quotients


def _pick(d_vals: list) -> float:
    """The partial from its difference quotients, one per step level."""
    if len(d_vals) == 1:
        return d_vals[0]
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


def _full_order(order, n: int) -> tuple:
    degs = order_degrees(order, n)
    if degs is None:
        raise InvalidArgument(f"order {order!r} is not {n} whole degrees >= 0 "
                              f"or a mapping of slots 0..{n - 1} to them")
    if sum(degs) > MAX_ORDER:
        raise OrderExceedsCaps(
            f"finite-difference depth is {MAX_ORDER}; got total order {sum(degs)}"
        )
    return degs


def fd_partials(
    f: Callable[[np.ndarray], np.ndarray],
    at: Sequence[float],
    orders: Sequence,
    room: Optional[np.ndarray] = None,
) -> list:
    """Central-difference mixed partials of f at `at`, one per order.

    Each order is an 8-tuple (or mapping slot->degree) with total order
    <= 3.  `room` optionally bounds how far a stencil may move each
    variable.  `f` is called once, on the ``(8, M)`` block of every
    stencil point of every order.
    """
    at = np.asarray(at, dtype=float)
    orders = tuple(_full_order(o, len(at)) for o in orders)
    points, weights, groups = _stencil(at, orders, room)
    terms = np.asarray(f(points), dtype=float) * weights
    out = [0.0] * len(orders)
    for members, rows in groups:
        # one difference quotient per order and step level
        for o, d_vals in zip(members.tolist(), np.sum(terms[rows], axis=-1).tolist()):
            out[o] = _pick(d_vals)
    return out


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
) -> OracleTensors:
    """Fundamental tensors, spray, and nonlinear connection from finite
    differences of L^2 alone (maximum depth three)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    at = np.concatenate([x, y])
    room = spec.domain.stencil_radius(y)

    def f2(z: np.ndarray) -> np.ndarray:
        return metrics.eval_L_value(spec, z[:4], z[4:]) ** 2

    # the 90 distinct partials: g, C, d_x, d_xy and d_xyy, in that order
    g_idx = [(i, j) for i in range(4) for j in range(i, 4)]
    c_idx = [(i, j, k) for i in range(4) for j in range(i, 4) for k in range(j, 4)]
    xyy_idx = [(k, r, j) for k in range(4) for r in range(4) for j in range(r, 4)]
    orders = (
        [multi(4 + i, 4 + j) for i, j in g_idx]
        + [multi(4 + i, 4 + j, 4 + k) for i, j, k in c_idx]
        + [multi(r) for r in range(4)]
        + [multi(k, 4 + r) for k in range(4) for r in range(4)]
        + [multi(k, 4 + r, 4 + j) for k, r, j in xyy_idx]
    )
    vals = iter(fd_partials(f2, at, orders, room))

    g = np.empty((4, 4))
    for i, j in g_idx:
        g[i, j] = g[j, i] = 0.5 * next(vals)
    C = np.empty((4, 4, 4))
    for idx in c_idx:
        val = 0.25 * next(vals)
        for p in itertools.permutations(idx):
            C[p] = val
    g_inv = np.linalg.inv(g)

    d_x = np.array([next(vals) for _ in range(4)])
    d_xy = np.array([next(vals) for _ in range(16)]).reshape(4, 4)
    e_vec = y @ d_xy - d_x  # E_r = y^k d_k dy_r L^2 - d_r L^2
    G = 0.25 * g_inv @ e_vec

    # N^i_j by differentiating the spray formula itself, keeping every
    # finite-difference application at depth <= 3
    d_xyy = np.empty((4, 4, 4))
    for k, r, j in xyy_idx:
        d_xyy[k, r, j] = d_xyy[k, j, r] = next(vals)
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

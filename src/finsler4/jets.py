"""Forward-mode truncated Taylor jets over the eight phase-space variables.

A :class:`JetScalar` holds the Taylor coefficients of a smooth scalar
quantity around a base point of the slit tangent bundle.  Slots 0..3 are
the position variables ``x1..x4``, slots 4..7 the direction variables
``y1..y4``.  Degree is capped per group and in total (see
:class:`DegreeCaps`); one evaluation of a fundamental function in this
ring yields every mixed partial the downstream tensor calculus reads.
Each jet carries a degree bound per group, so a product of factors free
of x (or of y) forms only the coefficient pairs that can be nonzero.
A coefficient of total degree d depends only on factor coefficients of
degree <= d, so a ring cut to a smaller total keeps every coefficient it
stores bit for bit.  Each ring keeps its monomials as one exponent array,
from which its product table, its derivative read maps and the jets of
the coordinates are built.

Coefficients are stored in Taylor normalisation: the entry for a
multi-index ``a`` equals the mixed partial divided by ``a!``, which keeps
multiplication a plain truncated convolution.  :func:`partial_extract`
multiplies the factorial back for one partial.

A jet tensor (a tensor field expanded around the base point) is a float
array of shape ``tensor_shape + (n,)`` at one caps: the trailing axis holds
the ``n`` Taylor-normalised coefficients, and the base slice ``[..., 0]``
is the tensor at the point.  :func:`derivative_tensor` gathers every
partial of a given x/y order of a jet, or of a whole stack of jets, as one
such array (or as floats at the default caps).  :func:`contract` is the
product of two jet tensors contracted over tensor axes: gather the
coefficient pairs along the coefficient axis, contract them in one
``np.einsum``, add them onto their monomials with one ``np.bincount``.
Every sum in it runs left to right: over the contracted index tuples in
row-major order, then over the pairs of a monomial in table order.
:func:`solve` applies the inverse of a jet matrix to a jet tensor by a
truncated Neumann series around the inverse of its base value, evaluated
by Horner; on the identity jet it is the inverse.  This is truncated
Taylor arithmetic in vector mode (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 13).  A :class:`JetScalar` is the case without
tensor axes, a lone jet or a stack of them (coefficients of shape
``S + (n,)``), with the elementary functions below; every one of them acts
on a stack row by row, each row bit for bit as alone.

Each elementary function (:func:`exp`, :func:`log`, :func:`recip`,
:func:`power`, :func:`sqrt`, :func:`sin`, :func:`cos`) is one NumPy series
at an array of base values.  A number or a NumPy array, elementwise, takes
its constant term, so the base value of a jet is the number bit for bit;
a domain check fails if any element fails it.

All values are immutable; every operation allocates a fresh jet, so jets
are safe to share between concurrent evaluators.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Mapping, Sequence, Union

import numpy as np

N_VARS = 8
X_SLOTS = (0, 1, 2, 3)
Y_SLOTS = (4, 5, 6, 7)

Number = Union[int, float]

# NumPy's own einsum and bincount without their ``__array_function__``
# dispatch: every operand in this package is a plain ndarray, which the
# dispatch would hand straight back to these functions
einsum = getattr(np.einsum, "_implementation", np.einsum)
bincount = getattr(np.bincount, "_implementation", np.bincount)


class Finsler4Error(Exception):
    """Root of every error the package raises."""


class InvalidArgument(Finsler4Error, ValueError):
    """A library function was called with an argument outside its contract."""


class SpecError(Finsler4Error):
    """A refused spec, expression or option: the CLI's usage error (exit 2)."""


class DomainViolation(Finsler4Error):
    """An elementary function was evaluated outside its real domain."""


class CapMismatch(Finsler4Error):
    """Binary operation between jets carrying different degree caps."""


class CapTooSmall(Finsler4Error):
    """A requested construction needs more degrees than the caps allow."""


class OrderExceedsCaps(Finsler4Error):
    """A partial of higher order than the stored truncation was requested."""


@dataclass(frozen=True)
class DegreeCaps:
    """Degree caps of a jet ring: x-degree <= x_max, y-degree <= y_max and
    total degree <= total_max, which defaults to x_max + y_max (no cut).

    ``tables`` holds the ring's exponent array and the product tables, read
    maps and coordinate jets built from it, shared by every equal caps value.
    """

    x_max: int
    y_max: int
    total_max: int | None = None

    def __post_init__(self) -> None:
        if self.x_max < 0 or self.y_max < 0:
            raise InvalidArgument("degree caps must be non-negative")
        if self.total_max is None:
            object.__setattr__(self, "total_max", self.x_max + self.y_max)
        elif not 0 <= self.total_max <= self.x_max + self.y_max:
            raise InvalidArgument(
                f"total degree cap {self.total_max} outside 0..{self.x_max + self.y_max}"
            )

    @cached_property
    def tables(self) -> "_Tables":
        return _tables(self)


_FLOAT_CAPS = DegreeCaps(0, 0)  # a jet with these caps is just its base value


class _Tables:
    """Tables of one caps value, all built from one exponent array.

    ``exps`` holds the ring's monomials as (n, 8) exponent rows, sorted by
    total degree, then by row, so a cut total keeps a prefix of the uncut
    ring and every kept monomial its index.  ``code`` (``exps @ weights``)
    ascends in that order and is additive, the code of a product being the
    sum of its factors' codes, so one ``searchsorted`` on it finds the index
    of any monomial of the ring.  From these come ``degs`` (the x- and
    y-degree of each monomial), the product table ``mul_i``, ``mul_j``,
    ``mul_k``, the derivative read maps (:meth:`read_map`) and ``units``,
    the (8, n) jets of the coordinates at 0.  The pairs (``mul_i``,
    ``mul_j``) are ``np.nonzero`` of one (n, n) mask of the pairs whose
    degrees fit the caps, so they come in ascending (i, j) order.
    """

    def __init__(self, caps: DegreeCaps) -> None:
        self.caps = caps
        xs, ys = (np.indices((cap + 1,) * 4).reshape(4, -1).T for cap in (caps.x_max, caps.y_max))
        xs, ys = xs[xs.sum(1) <= caps.x_max], ys[ys.sum(1) <= caps.y_max]
        rows = np.hstack([xs.repeat(len(ys), axis=0), np.tile(ys, (len(xs), 1))])
        rows = rows[rows.sum(1) <= caps.total_max]
        # every exponent of the ring stays below the radix, so codes add
        # without carries; the total degree weighs most
        radix = max(caps.x_max, caps.y_max) + 1
        self.weights = radix ** np.arange(7, -1, -1) + radix**8
        code = rows @ self.weights
        order = np.argsort(code)
        self.exps = rows[order]
        self.code = code[order]
        self.n = len(code)
        self.degs = np.stack([self.exps[:, :4].sum(1), self.exps[:, 4:].sum(1)], axis=1)
        # Pair each monomial i with the partners j that fit its leftover
        # degree budget; np.nonzero reads the (n, n) fit mask row by row, so
        # the pairs come in ascending (i, j) order, which fixes the summation
        # order of JetScalar.__mul__ and so every reported digit.
        dx, dy = self.degs.T
        tot = dx + dy
        fits = ((dx <= caps.x_max - dx[:, None]) & (dy <= caps.y_max - dy[:, None])
                & (tot <= caps.total_max - tot[:, None]))
        self.mul_i, self.mul_j = np.nonzero(fits)
        self.mul_k = self.code.searchsorted(self.code[self.mul_i] + self.code[self.mul_j])
        # the coordinate jets at 0: row s is 1 on the monomial of slot s alone
        self.units = ((self.exps.T == 1) & (tot == 1)).astype(float)
        full = (caps.x_max, caps.y_max)
        self._product_cache: dict = {
            (full, full): (self.mul_i, self.mul_j, self.mul_k, full)
        }
        self._scatter_cache: dict = {}
        self._tensor_cache: dict = {}

    def products(self, da: tuple, db: tuple):
        """(mul_i, mul_j, mul_k) restricted to the pairs whose factors fit
        the degree bounds da and db, in the order of the full table, and
        the degree bound of their product."""
        key = (da, db)
        hit = self._product_cache.get(key)
        if hit is None:
            fits_a = np.all(self.degs <= da, axis=1)
            fits_b = np.all(self.degs <= db, axis=1)
            keep = fits_a[self.mul_i] & fits_b[self.mul_j]
            deg = (min(da[0] + db[0], self.caps.x_max), min(da[1] + db[1], self.caps.y_max))
            hit = (self.mul_i[keep], self.mul_j[keep], self.mul_k[keep], deg)
            self._product_cache[key] = hit
        return hit

    def scatter_index(self, rows: int) -> np.ndarray:
        """Flat ``np.bincount`` index that sums each of ``rows`` stacked rows
        of coefficient products (mul_i, mul_j) onto its monomials: product
        p of row r lands on r * n + mul_k[p]."""
        hit = self._scatter_cache.get(rows)
        if hit is None:
            hit = (np.arange(rows)[:, None] * self.n + self.mul_k).ravel()
            self._scatter_cache[rows] = hit
        return hit

    def read_map(self, betas: np.ndarray, dst: "_Tables"):
        """Index and scale arrays, of shape ``betas.shape[:-1] + (dst.n,)``,
        that read the derivative by each multi-index row of ``betas``
        truncated to ``dst``: entry alpha of a derivative is coefficient
        alpha + beta times the exact integer prod (a + b)! / a!.  beta = 0
        truncates to smaller caps, and caps (0, 0) reads the partial at the
        base point.  The orders must fit; the callers check."""
        full = dst.exps + betas[..., None, :]
        r = max(self.caps.x_max, self.caps.y_max) + 1
        perm = np.array([[math.perm(a + b, b) for b in range(r)] for a in range(r)])
        scale = perm[dst.exps, betas[..., None, :]].prod(axis=-1).astype(float)
        return self.code.searchsorted(full @ self.weights), scale

    def tensor_map(self, nx: int, ny: int, dst: "_Tables"):
        """Read maps of every order-(nx, ny) partial, x slots first in
        row-major order: index and scale arrays of shape (4**(nx+ny), dst.n),
        flattened.  The first call for a key checks that the order fits."""
        key = (nx, ny, dst)
        hit = self._tensor_cache.get(key)
        if hit is not None:
            return hit
        if not _fits(dst.caps, _room(self.caps, nx, ny)):
            raise CapMismatch(
                f"order ({nx}, {ny}) of caps {self.caps} leaves less than {dst.caps}"
            )
        betas = np.array([
            multi(*s[:nx], *(4 + k for k in s[nx:]))
            for s in itertools.product(range(4), repeat=nx + ny)
        ])
        idx, scale = self.read_map(betas, dst)
        hit = (idx.ravel(), scale.ravel())
        self._tensor_cache[key] = hit
        return hit


@lru_cache(maxsize=None)
def _tables(caps: DegreeCaps) -> _Tables:
    return _Tables(caps)


OrderLike = Union[Sequence[int], Mapping[int, int]]


def _slot(s, n: int = N_VARS) -> int:
    """``s`` as a slot in 0..n-1: an integer that ``operator.index`` takes
    (a NumPy integer, or a bool read as its int); else OrderExceedsCaps."""
    try:
        slot = operator.index(s)
    except TypeError:
        slot = -1
    if not 0 <= slot < n:
        raise OrderExceedsCaps(f"variable slot {s!r} is not an integer in 0..{n - 1}")
    return slot


def multi(*slots: int) -> tuple[int, ...]:
    """Multi-index from a list of slots, e.g. ``multi(4, 4, 5)`` = y1^2 y2."""
    order = [0] * N_VARS
    for s in slots:
        order[_slot(s)] += 1
    return tuple(order)


def order_degrees(order: OrderLike, n: int = N_VARS) -> tuple[int, ...] | None:
    """The ``n`` degrees of a derivative order as ints, or None if ``order``
    is not one.  An order is a sequence of ``n`` degrees or a mapping from
    slot (see :func:`_slot`) to degree; a degree is a whole number >= 0, and
    a whole float reads like an int."""
    try:
        if isinstance(order, Mapping):
            full = [0] * n
            for s, deg in order.items():
                full[_slot(s, n)] = deg
            order = full
        order = tuple(order)
        degs = tuple(map(int, order))
    except (OrderExceedsCaps, TypeError, ValueError, OverflowError):
        return None
    if len(degs) != n or degs != order or min(degs, default=0) < 0:
        return None
    return degs


def _as_order(order: OrderLike) -> tuple[int, ...]:
    degs = order_degrees(order)
    if degs is None:
        raise OrderExceedsCaps(
            f"order {order!r} is not 8 whole degrees >= 0 or a mapping of slots 0..7 to them"
        )
    return degs


class JetScalar:
    """Truncated Taylor expansion of a scalar at a fixed base point, or a
    stack of them: ``c`` has shape ``S + (n,)``, and a lone jet is
    ``S = ()``.  Arithmetic and every elementary function act row by row,
    each row bit for bit as alone.

    ``deg = (dx, dy)`` bounds the x-degree and the y-degree of every nonzero
    coefficient; it defaults to the caps.  A product forms only the
    coefficient pairs inside the bounds of its factors: the pairs it skips
    hold an exact zero, so every finite coefficient comes out bit for bit
    as with the full table, and a non-finite one still reaches the output
    through its pair with the base coefficient of the other factor.
    """

    __slots__ = ("caps", "c", "deg")
    # a NumPy number meeting a jet in an operator hands it to the jet
    __array_ufunc__ = None

    def __init__(self, caps: DegreeCaps, coeffs: np.ndarray, deg: tuple | None = None) -> None:
        self.caps = caps
        self.c = coeffs
        self.deg = (caps.x_max, caps.y_max) if deg is None else deg

    @property
    def base(self) -> float:
        """The value at the base point of a lone jet."""
        return float(self.c[0])

    def __repr__(self) -> str:
        return f"JetScalar(base={self.c[..., 0].tolist()!r}, caps={self.caps}, deg={self.deg})"

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "JetScalar":
        if isinstance(other, JetScalar):
            if other.caps is not self.caps and other.caps != self.caps:
                raise CapMismatch(
                    f"operands carry caps {self.caps} and {other.caps}"
                )
            return other
        if isinstance(other, (int, float)):
            return const(float(other), self.caps)
        return NotImplemented  # type: ignore[return-value]

    def _sum_deg(self, o: "JetScalar") -> tuple:
        return (max(self.deg[0], o.deg[0]), max(self.deg[1], o.deg[1]))

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return JetScalar(self.caps, self.c + o.c, self._sum_deg(o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return JetScalar(self.caps, self.c - o.c, self._sum_deg(o))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return JetScalar(self.caps, o.c - self.c, self._sum_deg(o))

    def __neg__(self):
        return JetScalar(self.caps, -self.c, self.deg)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return JetScalar(self.caps, self.c * float(other), self.deg)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        t = self.caps.tables
        mul_i, mul_j, mul_k, deg = t.products(self.deg, o.deg)
        return JetScalar(self.caps, _product(self.c, o.c, mul_i, mul_j, mul_k, t.n), deg)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            if other == 0:
                raise DomainViolation("division by zero constant")
            return JetScalar(self.caps, self.c / float(other), self.deg)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * recip(o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * recip(self)

    def __pow__(self, r):
        if isinstance(r, (int, float)):
            return power(self, r)
        return NotImplemented


def _product(a: np.ndarray, b: np.ndarray, mul_i, mul_j, mul_k, n: int) -> np.ndarray:
    """Ring product of two coefficient arrays of shape ``S + (n,)``, row by
    row: one ``np.bincount`` sums each row's pairs (mul_i, mul_j) onto its
    monomials mul_k left to right, each row offset by ``n``."""
    if a.ndim == b.ndim == 1:
        return bincount(mul_k, weights=a[mul_i] * b[mul_j], minlength=n)
    prod = a.take(mul_i, axis=-1) * b.take(mul_j, axis=-1)
    rows = prod.size // len(mul_k)
    at = (np.arange(rows)[:, None] * n + mul_k).ravel()
    coeffs = bincount(at, weights=prod.ravel(), minlength=rows * n)
    return coeffs.reshape(prod.shape[:-1] + (n,))


def const(value: float, caps: DegreeCaps) -> JetScalar:
    c = np.zeros(caps.tables.n)
    c[0] = value
    return JetScalar(caps, c, (0, 0))


def variable(slot: int, value: float, caps: DegreeCaps) -> JetScalar:
    """Jet of the coordinate function of one slot at the given value."""
    slot = _slot(slot)
    group_cap = caps.x_max if slot in X_SLOTS else caps.y_max
    if min(group_cap, caps.total_max) < 1:
        raise CapTooSmall(f"slot {slot} needs degree >= 1 in its group, caps {caps}")
    c = caps.tables.units[slot].copy()
    c[0] = value
    return JetScalar(caps, c, (0, 1) if slot in Y_SLOTS else (1, 0))


def _room(caps: DegreeCaps, dx: int, dy: int) -> tuple[int, int, int]:
    """The (x, y, total) degree budgets a derivative of x-order dx and
    y-order dy leaves in ``caps``."""
    room = (caps.x_max - dx, caps.y_max - dy, caps.total_max - dx - dy)
    if min(room) < 0:
        raise OrderExceedsCaps(f"order ({dx}, {dy}) exceeds caps {caps}")
    return room


def _fits(caps: DegreeCaps, room: tuple[int, int, int]) -> bool:
    return caps.x_max <= room[0] and caps.y_max <= room[1] and caps.total_max <= room[2]


def _shift(f: JetScalar, order: OrderLike, caps: DegreeCaps | None = None):
    """(caps, coefficients) of the derivative-by-`order` of f, truncated to
    ``caps`` (default: the caps the derivative leaves).  The one reader
    behind :func:`partial_extract`, :func:`derivative_jet` and :func:`restrict`."""
    beta = _as_order(order)
    bx, by, bt = _room(f.caps, sum(beta[:4]), sum(beta[4:]))
    if caps is None:
        caps = DegreeCaps(min(bx, bt), min(by, bt), bt)
    src_idx, scale = f.caps.tables.read_map(np.array(beta), caps.tables)
    return caps, f.c[..., src_idx] * scale


def partial_extract(f: JetScalar, order: OrderLike):
    """Mixed partial of f at the base point (coefficient times factorials):
    a float for a lone jet, an array of shape ``S`` for a stack."""
    v = _shift(f, order, _FLOAT_CAPS)[1][..., 0]
    return float(v) if v.ndim == 0 else v


def derivative_jet(f: JetScalar, order: OrderLike) -> JetScalar:
    """Jet of the derivative-by-`order` of f, with correspondingly reduced caps."""
    return JetScalar(*_shift(f, order))


def derivative_tensor(
    f, nx: int, ny: int, caps: DegreeCaps = _FLOAT_CAPS, f_caps: DegreeCaps | None = None
) -> np.ndarray:
    """Every partial of f of order nx in x and ny in y, x axes first.

    ``f`` is a JetScalar, or a stack of jets at ``f_caps`` given as a
    coefficient array of shape ``S + (n,)``; one gather reads the whole
    stack, and the derivative axes follow ``S``.  With the default caps the
    result is the float tensor of shape ``S + (4,) * (nx + ny)``.  With
    larger caps each entry is the jet of that derivative truncated to
    ``caps``, i.e. ``restrict(derivative_jet(...))``, and the result is its
    coefficient array, of shape ``S + (4,) * (nx + ny) + (n_caps,)``.
    """
    if isinstance(f, JetScalar):
        f, f_caps = f.c, f.caps
    dst = caps.tables
    idx, scale = f_caps.tables.tensor_map(nx, ny, dst)
    shape = f.shape[:-1] + (4,) * (nx + ny)
    if dst is not _FLOAT_CAPS.tables:
        shape += (dst.n,)
    return (f.take(idx, axis=-1) * scale).reshape(shape)


def restrict(f: JetScalar, caps: DegreeCaps) -> JetScalar:
    """Truncate a jet to smaller (or equal) caps."""
    if caps == f.caps:
        return f
    if not _fits(caps, _room(f.caps, 0, 0)):
        raise CapMismatch(f"cannot restrict caps {f.caps} to larger {caps}")
    return JetScalar(*_shift(f, (0,) * N_VARS, caps))


# -- jet tensors ---------------------------------------------------------


# contract spec -> the einsum spec over its coefficient pairs
_PAIR_SPECS: dict = {}


def contract(spec: str, a: np.ndarray, b: np.ndarray, caps: DegreeCaps) -> np.ndarray:
    """Ring product of two jet tensors, contracted as the einsum ``spec``.

    ``a`` and ``b`` are coefficient arrays at ``caps`` (tensor axes, then
    the coefficient axis), and ``spec`` names their tensor axes only, e.g.
    ``"ij,j->i"`` for a matrix times a vector or ``"i,->i"`` for a vector
    times a scalar jet.  Every pair of coefficients whose monomials multiply
    within the caps is gathered once, along the coefficient axis, so the
    pair axis is innermost in memory.  One ``np.einsum`` then contracts the
    tensor axes: each pair's sum runs left to right over the contracted
    index tuples in row-major order, the labels taken as they first appear
    in ``spec``.  Last, one ``np.bincount`` adds the pairs onto their
    monomials left to right in table order, as :meth:`JetScalar.__mul__`
    does.  Every sum is sequential and per entry, so an extra leading
    axis in ``spec`` (a stack of points) changes no bit of any member.
    """
    t = caps.tables
    full = _PAIR_SPECS.get(spec)
    if full is None:
        ins, out = spec.split("->")
        left, right = ins.split(",")
        full = _PAIR_SPECS[spec] = f"{left}...,{right}...->{out}..."
    pairs = einsum(full, a.take(t.mul_i, axis=-1), b.take(t.mul_j, axis=-1))
    rows = pairs.size // len(t.mul_k)
    coeffs = bincount(t.scatter_index(rows), weights=pairs.ravel(), minlength=rows * t.n)
    return coeffs.reshape(pairs.shape[:-1] + (t.n,))


def solve(m: np.ndarray, m0_inv: np.ndarray, rhs: np.ndarray, caps: DegreeCaps) -> np.ndarray:
    """``m^-1 rhs`` for a (k, k) jet matrix ``m``, given the inverse of its
    base value; ``rhs`` is a jet tensor whose first axis has length k.
    Leading stack axes of ``m0_inv`` (shape ``S + (k, k)``) lead ``m`` and
    ``rhs`` too (``rhs`` may have size 1 there, shared by every member), and
    each member is solved as if alone.

    With ``d = m - m0`` (no constant term, so nilpotent in the ring) the
    truncated Neumann series ``sum_{j <= caps.total_max} (-m0_inv d)^j
    m0_inv rhs`` is exact.  It is evaluated by Horner, one contraction of
    ``-m0_inv d`` with the running sum per degree; it needs neither pivots
    nor branches, and a singular base is the caller's check, made where
    ``m0_inv`` is formed.  On the identity jet it gives the inverse of ``m``.
    """
    z = "ZYXW"[: m0_inv.ndim - 2]
    d = m.copy()
    d[..., 0] = 0.0
    step = -einsum(f"{z}ij,{z}jk...->{z}ik...", m0_inv, d)
    base = einsum(f"{z}ij,{z}j...->{z}i...", m0_inv, rhs)
    rest = "klmnopqr"[: rhs.ndim - len(z) - 2]
    spec = f"{z}ij,{z}j{rest}->{z}i{rest}"
    out = base
    for _ in range(caps.total_max):
        out = base + contract(spec, step, out, caps)
    return out


def identity(k: int, caps: DegreeCaps) -> np.ndarray:
    """The (k, k) identity matrix as a constant jet tensor at ``caps``."""
    out = np.zeros((k, k, caps.tables.n))
    out[..., 0] = np.eye(k)
    return out


# -- elementary functions ----------------------------------------------
#
# Each elementary function h is written once, as its Taylor series at an
# array of base values b: a unit u and the coefficients a[k] of h(b + u t)
# in t.  A number or an array takes a[0]; a jet sums the series in
# t = (f - b)/u.  log, 1/f and fractional powers take u = b, so their
# coefficients do not depend on the scale of f.


def _base(f):
    """(base values, series order): a jet's constant coefficients (a NumPy
    number for a lone jet) and its caps' total degree, or a number or array
    as an array and 0."""
    if isinstance(f, JetScalar):
        return f.c[..., 0][()], f.caps.total_max
    return np.asarray(f), 0


def _compose(f, u, a):
    """h(f) from the coefficients ``a[k]`` of h(b + u t) in t: ``a[0]`` for
    a number or an array, and for a jet the series in t = (f - b)/u up to
    ``caps.total_max`` (higher orders are nilpotent), each row of a stack as
    on its own, by Horner recursion, one degree-bounded product per order."""
    if not isinstance(f, JetScalar):
        return a[0]
    t = f.caps.tables
    m = f.caps.total_max
    s = f.c / np.asarray(u)[..., None]  # the jet of t, once its base is 0
    s[..., 0] = 0.0
    r = np.zeros(s.shape)
    deg = (0, 0)
    for k in range(m, -1, -1):
        if k == m - 1:
            # the first product multiplies s by a constant: each pair (0, j)
            # lands on monomial j alone, so it is elementwise, and adding
            # 0.0 gives the 0.0 a ring sum gives for a -0.0
            _, cols, _, deg = t.products(deg, f.deg)
            if len(cols) == t.n:
                r = r[..., :1] * s + 0.0
            else:
                r[..., cols] = r[..., :1] * s[..., cols] + 0.0
        elif k < m:
            mul_i, mul_j, mul_k, deg = t.products(deg, f.deg)
            r = _product(r, s, mul_i, mul_j, mul_k, t.n)
        r[..., 0] += a[k]
    return JetScalar(f.caps, r, deg)


def _binomial(f, r: float, p):
    """f**r from p = b**r: u = b and a_k = p C(r, k), the series of (1 + t)**r."""
    b, m = _base(f)
    coeffs, c = [p], 1.0
    for k in range(1, m + 1):
        c *= (r - k + 1) / k
        coeffs.append(p * c)
    return _compose(f, b, coeffs)


def recip(f):
    """1/f: the binomial series at r = -1, a_k = (-1)**k / b, each factor
    (r - k + 1)/k = -1 exact."""
    b, _ = _base(f)
    if (b == 0).any():
        raise DomainViolation("reciprocal of zero")
    return _binomial(f, -1.0, 1.0 / b)


def exp(f):
    """e**f: u = 1 and a_k = e**b / k!."""
    b, m = _base(f)
    e = np.exp(b)
    return _compose(f, 1.0, [e / math.factorial(k) for k in range(m + 1)])


def log(f):
    """log f: u = b, a_0 = log b and a_k = (-1)**(k-1) / k."""
    b, m = _base(f)
    if (b <= 0).any():
        raise DomainViolation("log of a non-positive value")
    return _compose(f, b, [np.log(b)] + [(-1) ** (k - 1) / k for k in range(1, m + 1)])


def power(f, r: Number):
    """f**r for a constant exponent.

    Integer exponents reduce to repeated multiplication (valid for any
    base but zero to a negative power); a fractional exponent needs a
    strictly positive base and sums the binomial series around b**r.
    """
    b, _ = _base(f)
    if float(r) != int(r):
        if (b <= 0).any():
            raise DomainViolation("fractional power of a non-positive value")
        return _binomial(f, float(r), np.power(b, float(r)))
    if r < 0 and (b == 0).any():
        raise DomainViolation("negative power of zero")
    if not isinstance(f, JetScalar):
        return np.power(f, float(r))
    n = int(r)
    if n == 0:
        one = np.zeros(f.c.shape)
        one[..., 0] = 1.0
        return JetScalar(f.caps, one, (0, 0))
    inv = n < 0
    n = abs(n)
    factors = []
    base = f
    while n:
        if n & 1:
            factors.append(base)
        n >>= 1
        if n:
            base = base * base
    acc = reduce(operator.mul, factors)
    return recip(acc) if inv else acc


def sqrt(f):
    """f**0.5, its base value from ``np.sqrt``."""
    b, _ = _base(f)
    if (b <= 0).any():
        raise DomainViolation("sqrt of a non-positive value")
    return _binomial(f, 0.5, np.sqrt(b))


def _sin_cos(f, first: int):
    """sin f (first = 0) or cos f (first = 1): u = 1 and a_k is the k-th
    derivative, cycling sin, cos, -sin, -cos, over k!."""
    b, m = _base(f)
    s, c = np.sin(b), np.cos(b)
    cycle = (s, c, -s, -c)
    return _compose(f, 1.0, [cycle[(first + k) % 4] / math.factorial(k) for k in range(m + 1)])


def sin(f):
    return _sin_cos(f, 0)


def cos(f):
    return _sin_cos(f, 1)


def base_of(v):
    """Base value of a jet; any other value passes through."""
    return v.base if isinstance(v, JetScalar) else v


def ring_sum(terms):
    """Left-to-right sum of floats or jets, starting from the first term."""
    return reduce(operator.add, terms)

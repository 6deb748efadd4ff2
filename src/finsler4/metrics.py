"""Metric families, validity domains, and deterministic point sampling.

A :class:`MetricSpec` describes a fundamental function L(x, y) on the
four-dimensional slit tangent bundle, either as one of the built-in
families or as a parsed expression, optionally composed with a
position-only conformal factor.  Every family's L is an expression
(``MetricSpec.L_ast``; :func:`make_builtin_metric` writes out the built-in
formulas), and :func:`exprdsl.eval_expr` is the one evaluator of L.
Evaluation is ring-polymorphic: the same expression runs on NumPy values,
a lone point or arrays of points (for the finite-difference oracle), or on
jets (for the tensor pipeline).  :func:`guarded` decides every failed
evaluation.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Optional, Sequence

import numpy as np

from . import exprdsl, jets
from .exprdsl import ExprAst
from .jets import (
    DegreeCaps, DomainViolation, Finsler4Error, InvalidArgument, JetScalar, SpecError,
)

Y_CONES = ("all_nonzero", "all_positive", "unit_ball_interior_shifted")

# the shifted-ball cone: rays from the origin through the open unit ball
# centred at this point (a blunt cone of directions around the y1 axis)
_SHIFTED_BALL_CENTER = 1.5
_CONE_MARGIN = 1e-3
_EPS_Y = 1e-6  # the minimum |y| ever accepted


class InvalidParameters(SpecError):
    pass


class EmptyDomain(SpecError):
    pass


class SigmaUsesY(SpecError):
    pass


@dataclass(frozen=True)
class DomainSpec:
    """Sampling box for x and admissible cone for y.

    ``component_margin`` keeps sampled directions away from the cone
    boundary (and, for the all_nonzero cone, away from the coordinate
    hyperplanes where quartic metrics degenerate).  Cone membership itself
    only uses the 1e-3 predicate margin and rejects |y| below 1e-6.
    """

    x_box: tuple = (((-1.0, 1.0),) * 4)
    y_cone: str = "all_nonzero"
    component_margin: float = 0.05

    def __post_init__(self) -> None:
        if self.y_cone not in Y_CONES:
            raise InvalidParameters(f"unknown y_cone {self.y_cone!r}")
        if len(self.x_box) != 4 or any(len(iv) != 2 for iv in self.x_box):
            raise InvalidParameters("x_box must be four [lo, hi] intervals")
        # hi - lo is not finite if a bound is not, or if the width overflows
        if not all(math.isfinite(hi - lo) for lo, hi in self.x_box):
            raise InvalidParameters("x_box bounds and widths must be finite")
        if any(iv[0] > iv[1] for iv in self.x_box):
            raise EmptyDomain("x_box interval with lo > hi")

    def contains(self, x: Sequence[float], y: Sequence[float]) -> bool:
        y = np.asarray(y, dtype=float)
        # scale y by the power of two 2**k that brings its largest component
        # into [0.5, 1): that is exact, so every test decides as for y itself,
        # and no square overflows however long y is
        k = math.frexp(max(map(abs, y.tolist())))[1]
        u = np.ldexp(y, -k)
        norm = float(np.linalg.norm(u))
        # the true length is norm * 2**k, at least 0.5 for k >= 0; a zero
        # direction, or one with an inf or nan component, is in no cone
        if not 0.0 < norm < math.inf or (k < 0 and math.ldexp(norm, k) < _EPS_Y):
            return False
        if self.y_cone == "all_positive":
            return bool(np.all(u > _CONE_MARGIN * norm))
        if self.y_cone == "unit_ball_interior_shifted":
            # ray through y must meet the open ball around the axis point
            sin_half = 1.0 / _SHIFTED_BALL_CENTER
            if u[0] <= 0:
                return False
            perp = math.sqrt(max(norm**2 - u[0] ** 2, 0.0)) / norm
            return perp < sin_half - _CONE_MARGIN
        return True

    def stencil_radius(self, y: Sequence[float]) -> np.ndarray:
        """Conservative per-variable room for finite-difference stencils."""
        y = np.asarray(y, dtype=float)
        room = np.full(8, np.inf)
        if self.y_cone == "all_positive":
            room[4:] = np.maximum(y, 0.0)
        elif self.y_cone == "unit_ball_interior_shifted":
            room[4:] = 0.1 * float(np.linalg.norm(y))
        return room


@dataclass(frozen=True)
class SamplePlan:
    count: int
    seed: int = 0

    def __post_init__(self) -> None:
        # a NumPy integer is read as the int it holds; a bool or a float is
        # refused, as the JSON schema refuses them
        for name in ("count", "seed"):
            value = getattr(self, name)
            try:
                if isinstance(value, bool):
                    raise TypeError
                value = operator.index(value)
            except TypeError:
                raise InvalidParameters(f"sample {name} must be an integer") from None
            if value < 0:
                raise InvalidParameters(f"sample {name} must be non-negative")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class MetricSpec:
    """Declarative description of a metric family plus its domain.

    ``L_ast`` is L as an expression for every family but ``conformal``,
    whose L is e^sigma times that of ``base``.
    """

    family: str
    domain: DomainSpec
    L_ast: Optional[ExprAst] = None
    sigma_ast: Optional[ExprAst] = None
    base: Optional["MetricSpec"] = None
    b_ast: Optional[tuple] = None  # 4 of ExprAst for the randers family


def _parse_entry(value) -> ExprAst:
    if isinstance(value, str):
        return exprdsl.parse_expr(value)
    # a bool is an int to Python, and an int past the float range is not finite
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:
            return exprdsl.Lit(float(value))
    raise InvalidParameters(
        f"expected a finite number or expression string, got {exprdsl.echo(repr(value))}"
    )


def _is_list_of(value, n: int) -> bool:
    """True for a list or tuple of n entries (a string or a number is not one)."""
    return isinstance(value, (list, tuple)) and len(value) == n


def _require_x_only(ast: ExprAst, what: str) -> None:
    if any(slot >= 4 for slot in exprdsl.variables_used(ast)):
        raise InvalidParameters(f"{what} may depend on x1..x4 only")


_Y = tuple(exprdsl.Var(slot, exprdsl.VAR_NAMES[slot]) for slot in range(4, 8))
_QUARTIC_L = exprdsl.parse_expr("(y1^4+y2^4+y3^4+y4^4)^0.25")
_BERWALD_MOOR_L = exprdsl.parse_expr("(y1*y2*y3*y4)^0.25")


def _sum(terms) -> ExprAst:
    """Left-to-right sum of expressions, starting from the first term;
    ``Lit(0.0)`` if there is none."""
    terms = list(terms)
    return reduce(lambda a, b: exprdsl.BinOp("+", a, b), terms) if terms else exprdsl.Lit(0.0)


def _is_zero(ast: ExprAst) -> bool:
    return isinstance(ast, exprdsl.Lit) and ast.value == 0.0


def _times(*factors) -> ExprAst:
    return reduce(lambda a, b: exprdsl.BinOp("*", a, b), factors)


def make_builtin_metric(
    family: str, params: Optional[dict] = None, domain: Optional[DomainSpec] = None
) -> MetricSpec:
    """Validated spec with a family-appropriate default domain."""
    params = dict(params or {})
    if family == "quartic_minkowski":
        if params:
            raise InvalidParameters("quartic_minkowski takes no parameters")
        dom = domain or DomainSpec(y_cone="all_nonzero")
        return MetricSpec(family, dom, L_ast=_QUARTIC_L)
    if family == "berwald_moor":
        if params:
            raise InvalidParameters("berwald_moor takes no parameters")
        dom = domain or DomainSpec(y_cone="all_positive")
        if dom.y_cone != "all_positive":
            raise InvalidParameters("berwald_moor requires the all_positive cone")
        return MetricSpec(family, dom, L_ast=_BERWALD_MOOR_L)
    if family == "riemannian":
        g0 = params.get("g0")
        if not (_is_list_of(g0, 4) and all(_is_list_of(row, 4) for row in g0)):
            raise InvalidParameters("riemannian requires a 4x4 'g0' matrix")
        entries = [[_parse_entry(v) for v in row] for row in g0]
        for row in entries:
            for entry in row:
                _require_x_only(entry, "riemannian coefficients")
        # sqrt of the sum of g0_ij y_i y_j, left to right, over the entries
        # that are not a literal zero; leaving those out changes no bit of L.
        # In jets each term ends in a ring product, whose sums start at
        # +0.0, so no term or partial sum holds a -0.0, a zero term is all
        # +0.0 and adding it is the identity, and its degree bound (0, 2)
        # lies within every other term's.  In NumPy a zero term is +-0.0,
        # which moves no nonzero sum, and sqrt refuses a zero sum of either
        # sign as it refuses the Lit(0.0) of an all-zero g0.
        q = _sum(
            _times(entries[i][j], _Y[i], _Y[j])
            for i in range(4) for j in range(4) if not _is_zero(entries[i][j])
        )
        dom = domain or DomainSpec(y_cone="all_nonzero")
        return MetricSpec(family, dom, L_ast=exprdsl.Call("sqrt", q))
    if family == "randers":
        b = params.get("b")
        if not _is_list_of(b, 4):
            raise InvalidParameters("randers requires four 'b' entries")
        b_ast = tuple(_parse_entry(v) for v in b)
        for entry in b_ast:
            _require_x_only(entry, "randers drift coefficients")
        dom = domain or DomainSpec(y_cone="all_nonzero")
        _check_randers_valid(b_ast, dom)
        # sqrt(y1*y1+y2*y2+y3*y3+y4*y4) + (b1*y1+b2*y2+b3*y3+b4*y4), with
        # each b_i that is a literal zero left out (Lit(0.0) if all are),
        # which changes no bit of L: 0*y_i is +-0.0 throughout, so leaving
        # it out moves only the sign of zero entries of the drift, and
        # alpha, which holds no -0.0, takes each of them to the same sum;
        # alpha's degree bound covers the drift's (0, 1)
        alpha = exprdsl.Call("sqrt", _sum(_times(v, v) for v in _Y))
        drift = _sum(_times(bi, v) for bi, v in zip(b_ast, _Y) if not _is_zero(bi))
        return MetricSpec(family, dom, L_ast=exprdsl.BinOp("+", alpha, drift), b_ast=b_ast)
    if family == "expression":
        src = params.get("L")
        if src is None:
            raise InvalidParameters("expression family requires 'L'")
        dom = domain or DomainSpec(y_cone="all_nonzero")
        return MetricSpec(family, dom, L_ast=_expression(src, "'L'"))
    raise InvalidParameters(f"unknown metric family {family!r}")


def _check_randers_valid(b_ast, dom: DomainSpec) -> None:
    # probe the 16 corners and the centre of the x box: |b(x)| must stay
    # below 1; |b|^2 is convex for an affine drift, so there the corners decide
    probes = [list(x) for x in itertools.product(*dom.x_box)]
    probes.append([(iv[0] + iv[1]) / 2 for iv in dom.x_box])
    for x in probes:
        env = np.array([*x, 0.0, 0.0, 0.0, 0.0])
        try:
            norm2 = guarded(
                lambda: sum(exprdsl.eval_expr(e, env) ** 2 for e in b_ast), "|b(x)|^2"
            )
        except DomainViolation as err:
            raise InvalidParameters(
                f"randers drift cannot be evaluated at x={x}: {err}"
            ) from None
        if norm2 >= 1.0:
            raise InvalidParameters(
                f"randers drift has |b(x)| >= 1 at x={x}; metric degenerates"
            )


def _expression(value, what: str) -> ExprAst:
    """``value``, an expression string or node, as a node."""
    if isinstance(value, str):
        return exprdsl.parse_expr(value)
    if not isinstance(value, ExprAst):
        raise InvalidParameters(
            f"{what} must be an expression string or node, got {exprdsl.echo(repr(value))}"
        )
    return value


def make_conformal(base: MetricSpec, sigma) -> MetricSpec:
    """Position-only conformal rescaling of a base metric."""
    ast = _expression(sigma, "the conformal factor")
    if any(slot >= 4 for slot in exprdsl.variables_used(ast)):
        raise SigmaUsesY("the conformal factor may depend on x1..x4 only")
    return MetricSpec("conformal", base.domain, sigma_ast=ast, base=base)


# -- evaluation -----------------------------------------------------------


def guarded(compute, what: str):
    """``compute()``, quiet on NumPy overflow and invalid results; a Python
    arithmetic or value error on the way (an infinite exponent, say) or a
    non-finite result ``what`` (a number, an array or a jet, whose series
    coefficients overflow to inf) raises :class:`DomainViolation`."""
    try:
        with np.errstate(all="ignore"):
            out = compute()
    except Finsler4Error:
        raise
    except (ValueError, ArithmeticError) as err:
        raise DomainViolation(str(err)) from None
    if not np.isfinite(out.c if isinstance(out, JetScalar) else out).all():
        raise DomainViolation(f"{what} is not finite here")
    return out


def _eval_family(spec: MetricSpec, env: list):
    """L(x, y) in whatever ring the environment elements live in."""
    if spec.base is not None:
        return _rescale(_eval_family(spec.base, env), exprdsl.eval_expr(spec.sigma_ast, env))
    if spec.b_ast is not None:
        b_norm2 = sum(jets.base_of(exprdsl.eval_expr(e, env)) ** 2 for e in spec.b_ast)
        if np.any(b_norm2 >= 1.0):
            raise DomainViolation("randers drift reached |b(x)| >= 1")
    return exprdsl.eval_expr(spec.L_ast, env)


def _rescale(base_L, sigma):
    """e^sigma(x) times the base metric's L: the one formula of a conformal spec."""
    return jets.exp(sigma) * base_L


def point_components(name: str, v: Sequence[float]) -> np.ndarray:
    """``v`` (the x or the y of a point) as an array of four floats;
    InvalidArgument for any other shape."""
    try:
        out = np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or out.shape != (4,):
        raise InvalidArgument(f"{name} must be four numbers, got {v!r}")
    return out


def _env(spec: MetricSpec, x, y, caps: DegreeCaps) -> list:
    """The jets of x1..x4 and y1..y4 at a point of the spec's domain."""
    x, y = point_components("x", x), point_components("y", y)
    if not spec.domain.contains(x, y):
        raise DomainViolation(f"point y={y.tolist()} outside the {spec.domain.y_cone} cone")
    return [jets.variable(i, v, caps) for i, v in enumerate([*x.tolist(), *y.tolist()])]


def eval_L(spec: MetricSpec, x: Sequence, y: Sequence, caps: DegreeCaps) -> JetScalar:
    """Jet of L at (x, y); one evaluation carries all needed partials.

    An arithmetic error on the way, and any non-finite coefficient of the
    result, raise :class:`DomainViolation`; an x or y that is not four
    numbers raises :class:`InvalidArgument`.
    """
    env = _env(spec, x, y, caps)
    out = guarded(lambda: _eval_family(spec, env), "the jet of L")
    return out if isinstance(out, JetScalar) else jets.const(float(out), caps)


def _lift(spec: MetricSpec, x, y, caps: DegreeCaps, base_L: Optional[JetScalar]) -> tuple:
    """(sigma, L) of a conformal spec at (x, y) as jets at ``caps``: sigma's
    expression evaluated once, on the x variables (a constant jet if sigma is
    a number), and L = e^sigma base_L, with ``base_L`` the jet of the base
    metric's L at the point (evaluated here if None).  Fails as eval_L does."""
    env = _env(spec, x, y, caps)
    sigma = None

    def rescaled():
        nonlocal sigma
        L = _eval_family(spec.base, env) if base_L is None else base_L
        value = exprdsl.eval_expr(spec.sigma_ast, env)
        sigma = value if isinstance(value, JetScalar) else jets.const(float(value), caps)
        return _rescale(L, sigma)

    L = guarded(rescaled, "the jet of L")
    return sigma, L


def eval_L_value(spec: MetricSpec, x: Sequence, y: Sequence):
    """Plain evaluation of L, used by the finite-difference oracle.

    With four numbers each for ``x`` and ``y`` the result is a float.  With
    four equal-shaped arrays each, L is evaluated elementwise and the result
    is an array of that shape; a number is a 0-d array, so both give the same
    bits.  A domain check fails if any element fails it, and any non-finite
    element raises :class:`DomainViolation`.
    """
    env = [np.asarray(v, dtype=float) for v in (*x, *y)]
    out = np.full(env[0].shape, guarded(lambda: _eval_family(spec, env), "L"))
    return out if out.ndim else float(out)


# -- sampling -------------------------------------------------------------


# SeedSequence's hash constants (pool of four 32-bit words) and the
# PCG64 multiplier, as NumPy's random module defines them
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _pcg64_doubles(seed: int) -> Iterator[float]:
    """The doubles in [0, 1) of NumPy's ``default_rng(seed).random()``, bit
    for bit, from Python ints alone: the seed's 32-bit words are mixed into a
    SeedSequence pool, which yields the 128-bit state and increment of a
    PCG64 generator (O'Neill 2014) with XSL-RR 128/64 output.  Owning the
    stream keeps NumPy's random module (some 6 MB) out of every process."""
    # the seed's words, low word first, padded with zeros to at least four
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 128), 32)]
    h = _INIT_A

    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * _MULT_A & _M32
        v = v * h & _M32
        return v ^ v >> _XSHIFT

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return r ^ r >> _XSHIFT

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    h, out = _INIT_B, []
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * _MULT_B & _M32
        v = v * h & _M32
        out.append(v ^ v >> _XSHIFT)
    # the words pair up, low word first, into 64-bit words a, b, c, d: the
    # state seed is a:b and the increment seed c:d
    a, b, c, d = (out[k] | out[k + 1] << 32 for k in range(0, 8, 2))
    inc = ((c << 64 | d) << 1 | 1) & _M128
    # seeding steps from state 0 (giving inc), adds a:b and steps again
    state = ((inc + (a << 64 | b)) * _PCG_MULT + inc) & _M128
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        word, rot = (state >> 64 ^ state) & _M64, state >> 122
        yield (((word >> rot | word << (64 - rot)) & _M64) >> 11) * 2.0**-53


def _uniform(rng: Iterator[float], lo: float, hi: float) -> float:
    """One draw of ``Generator.uniform(lo, hi)``, in numpy's operation order."""
    return lo + (hi - lo) * next(rng)


def _draw_direction(rng: Iterator[float], domain: DomainSpec) -> np.ndarray:
    margin = domain.component_margin
    if domain.y_cone == "all_positive":
        lo = max(margin, _CONE_MARGIN)
        return np.array([_uniform(rng, lo, 1.0) for _ in range(4)])
    if domain.y_cone == "unit_ball_interior_shifted":
        for _ in range(256):
            p = np.array([_uniform(rng, -1.0, 1.0) for _ in range(4)])
            if np.linalg.norm(p) <= 1.0 - max(margin, _CONE_MARGIN):
                p[0] += _SHIFTED_BALL_CENTER
                return p
        raise EmptyDomain("could not sample the shifted-ball cone")
    # all_nonzero: keep components off the coordinate hyperplanes, where
    # fractional-power metrics lose smooth nondegeneracy
    for _ in range(256):
        u = [_uniform(rng, -1.0, 1.0) for _ in range(4)]
        if all(abs(v) >= margin for v in u):
            return np.array(u)
    raise EmptyDomain("could not sample the all_nonzero cone")


def sample_domain(domain: DomainSpec, plan: SamplePlan) -> list:
    """Deterministic (x, y) pairs; |y| is normalised into [0.5, 2].

    The points are those of NumPy's ``default_rng(plan.seed).uniform``
    draws, bit for bit, from finsler4's own PCG64 stream."""
    rng = _pcg64_doubles(plan.seed)
    points = []
    for _ in range(plan.count):
        x = np.array([_uniform(rng, lo, hi) for lo, hi in domain.x_box])
        u = _draw_direction(rng, domain)
        scale = _uniform(rng, 0.5, 2.0)
        y = u * (scale / np.linalg.norm(u))
        points.append((x, y))
    return points


# -- JSON spec schema ------------------------------------------------------

_TOP_KEYS = {"family", "params", "L", "sigma", "domain", "samples", "seed"}
_DOMAIN_KEYS = {"x_box", "y_cone"}


class SpecSchemaError(SpecError):
    pass


def spec_from_json_dict(doc: dict):
    """(MetricSpec, SamplePlan) from the documented JSON layout.

    Unknown fields are rejected so that typos never silently change a run.
    A refused document raises the SpecError of whatever refused it.
    """
    if not isinstance(doc, dict):
        raise SpecSchemaError("spec document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise SpecSchemaError(f"unknown spec fields: {sorted(unknown)}")
    family = doc.get("family")
    if not isinstance(family, str):
        raise SpecSchemaError("spec requires a 'family' string")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise SpecSchemaError("'params' must be an object")
    if "L" in doc:
        if family != "expression":
            raise SpecSchemaError("'L' is only valid for the expression family")
        params = dict(params)
        params["L"] = doc["L"]
    # the library also takes parsed expressions; a JSON document gives strings
    if family == "expression" and not isinstance(params.get("L", ""), str):
        raise SpecSchemaError("'L' must be an expression string")
    if not isinstance(doc.get("sigma", ""), str):
        raise SpecSchemaError("'sigma' must be an expression string")

    domain = None
    if "domain" in doc:
        dom = doc["domain"]
        if not isinstance(dom, dict):
            raise SpecSchemaError("'domain' must be an object")
        unknown = set(dom) - _DOMAIN_KEYS
        if unknown:
            raise SpecSchemaError(f"unknown domain fields: {sorted(unknown)}")
        kwargs = {}
        if "x_box" in dom:
            box = dom["x_box"]
            try:
                if any(isinstance(v, bool) for iv in box for v in iv):
                    raise TypeError
                kwargs["x_box"] = tuple((float(lo), float(hi)) for lo, hi in box)
            except (TypeError, ValueError, OverflowError):
                raise SpecSchemaError("'x_box' must be four [lo, hi] pairs") from None
            if len(kwargs["x_box"]) != 4:
                raise SpecSchemaError("'x_box' must have exactly four intervals")
        if "y_cone" in dom:
            kwargs["y_cone"] = dom["y_cone"]
        domain = DomainSpec(**kwargs)

    spec = make_builtin_metric(family, params, domain)
    if "sigma" in doc:
        spec = make_conformal(spec, doc["sigma"])

    samples = doc.get("samples", 16)
    seed = doc.get("seed", 0)
    if not isinstance(samples, int) or isinstance(samples, bool):
        raise SpecSchemaError("'samples' must be an integer")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise SpecSchemaError("'seed' must be an integer")
    return spec, SamplePlan(count=samples, seed=seed)

"""High-precision reference for the spray and the Miron-frame tables.

Quartic Minkowski and Randers ``b = 0.1*x2`` are written in closed form in
sympy.  Their g, C, L and spray numerator are lambdified to mpmath, the
frame formulas are rerun on them at 32 digits with the gauge (seed choice
and sign flips) fixed to the one the jet route reports, and every
derivative the tables need comes from ``mp.diff``.  Each table of the jet
route must lie within 1e-14 (1 + max|ref|) of this reference.
"""

import functools

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")
from mpmath import mp  # noqa: E402  (mpmath ships with sympy)

from finsler4.frame import SCALAR_NAMES, SCALAR_SLOTS, scalar_profile  # noqa: E402
from finsler4.geometry import point_eval  # noqa: E402
from finsler4.metrics import make_builtin_metric  # noqa: E402

DPS = 32
R4 = range(4)
X = sympy.symbols("x1:5")
Y = sympy.symbols("y1:5")
SLOTS = [SCALAR_SLOTS[name] for name in SCALAR_NAMES]


def _quartic():
    return sum(v**4 for v in Y) ** sympy.Rational(1, 4)


def _randers():
    # the binary double 0.1, as the expression parser reads "0.1"
    return sympy.sqrt(sum(v**2 for v in Y)) + sympy.Float(0.1, 40) * X[1] * Y[0]


CASES = {
    "quartic": (
        make_builtin_metric("quartic_minkowski"), _quartic,
        (0.0, 0.0, 0.0, 0.0), (1.0, 2.0, 1.0, 1.0),
    ),
    "randers": (
        make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]}), _randers,
        (0.1, 0.2, 0.3, 0.4), (1.0, 2.0, 1.0, 1.0),
    ),
}


@functools.lru_cache(maxsize=None)
def _closed_form(name):
    """mpmath callable (x1..x4, y1..y4) -> (L, g, C, E) with the spray
    numerator E_r = y^k d_xk d_yr L^2 - d_xr L^2, so that G = g^-1 E / 4."""
    L = CASES[name][1]()
    L2 = L**2
    d1 = [sympy.diff(L2, Y[i]) for i in R4]
    d2 = {(i, j): sympy.diff(d1[i], Y[j]) for i in R4 for j in R4 if i <= j}
    d3 = {
        (i, j, k): sympy.diff(d2[i, j], Y[k])
        for i in R4 for j in R4 for k in R4 if i <= j <= k
    }
    g = [[d2[tuple(sorted((i, j)))] / 2 for j in R4] for i in R4]
    C = [[[d3[tuple(sorted((i, j, k)))] / 4 for k in R4] for j in R4] for i in R4]
    E = [sum(Y[k] * sympy.diff(d1[r], X[k]) for k in R4) - sympy.diff(L2, X[r])
         for r in R4]
    return sympy.lambdify(X + Y, [L, g, C, E], modules="mpmath", cse=True)


def _memo(fn):
    """Cache on the point and the working precision: mp.diff raises the
    precision and revisits points across components."""
    cache = {}

    def wrapped(*args):
        key = (mp.prec, args)
        if key not in cache:
            cache[key] = fn(*args)
        return cache[key]

    return wrapped


def _frame(L, g, C, y, gauge):
    """Frame rows and the eight main scalars, by the frame formulas with
    the given seeds and sign flips."""
    g_inv = mp.inverse(mp.matrix(g))
    c_low = [mp.fsum(C[i][j][k] * g_inv[j, k] for j in R4 for k in R4) for i in R4]
    c_up = [mp.fsum(g_inv[i, j] * c_low[j] for j in R4) for i in R4]
    c_norm = mp.sqrt(mp.fsum(c_up[i] * c_low[i] for i in R4))
    e = [[v / L for v in y], [v / c_norm for v in c_up]]
    for seed, sign in zip(gauge["seeds"], gauge["sign_flips"]):
        coeffs = [mp.fsum(g[seed][j] * vec[j] for j in R4) for vec in e]
        r = [int(i == seed) - mp.fsum(c * vec[i] for c, vec in zip(coeffs, e)) for i in R4]
        norm = mp.sqrt(mp.fsum(g[i][j] * r[i] * r[j] for i in R4 for j in R4))
        e.append([sign * v / norm for v in r])
    scalars = [
        L * mp.fsum(C[i][j][k] * e[a][i] * e[b][j] * e[c][k]
                    for i in R4 for j in R4 for k in R4)
        for a, b, c in SLOTS
    ]
    return e, scalars


@functools.lru_cache(maxsize=None)
def reference(name, seeds, sign_flips):
    """Reference tables at the golden frame point of one case."""
    spec, _, x, y = CASES[name]
    gauge = {"seeds": seeds, "sign_flips": sign_flips}
    fields = _closed_form(name)
    with mp.workdps(DPS):
        point = tuple(mp.mpf(v) for v in x + y)

        @_memo
        def spray(*p):
            _, g, _, E = fields(*p)
            return list(mp.inverse(mp.matrix(g)) * mp.matrix(E) / 4)

        @_memo
        def frame(*p):
            L, g, C, _ = fields(*p)
            return _frame(L, g, C, p[4:], gauge)

        def partial(fn, comp, slots):
            order = [0] * 8
            for s in slots:
                order[s] += 1
            return mp.diff(lambda *p: fn(*p)[comp], point, tuple(order))

        L0 = fields(*point)[0]
        e, scalars = frame(*point)
        N = [[partial(spray, i, (4 + j,)) for j in R4] for i in R4]
        hess = np.empty((4, 4, 4, 4))
        for i in R4:
            for h in R4:
                for j in range(h, 4):
                    for k in range(j, 4):
                        val = float(partial(spray, i, (4 + h, 4 + j, 4 + k)))
                        for a, b, c in {(h, j, k), (h, k, j), (j, h, k),
                                        (j, k, h), (k, h, j), (k, j, h)}:
                            hess[i, a, b, c] = val
        v_derivs, h_derivs = [], []
        for row in range(8):
            S = lambda *p, row=row: frame(*p)[1][row]  # noqa: E731
            dS = [mp.diff(S, point, tuple(int(s == t) for t in range(8))) for s in range(8)]
            delta = [dS[k] - mp.fsum(N[r][k] * dS[4 + r] for r in R4) for k in R4]
            v_derivs.append([L0 * mp.fsum(e[a][r] * dS[4 + r] for r in R4) for a in R4])
            h_derivs.append([mp.fsum(e[a][k] * delta[k] for k in R4) for a in R4])

    def arr(v):
        return np.array(v, dtype=object).astype(float)

    return {
        "e": arr(e), "scalars": arr(scalars), "v_derivs": arr(v_derivs),
        "h_derivs": arr(h_derivs), "N": arr(N), "G_hess3": hess,
    }


def jet_route(name):
    spec, _, x, y = CASES[name]
    pe = point_eval(spec, x, y)
    prof = scalar_profile(pe)
    tables = {
        "e": prof.e, "scalars": prof.scalars,
        "v_derivs": prof.v_derivs, "h_derivs": prof.h_derivs,
        "N": pe.spray.N, "G_hess3": pe.spray.G_hess3,
    }
    return tables, prof.gauge_tag


@pytest.mark.parametrize("name", sorted(CASES))
def test_jet_route_matches_high_precision_reference(name):
    got, gauge = jet_route(name)
    ref = reference(name, gauge["seeds"], gauge["sign_flips"])
    for table, want in ref.items():
        scale = 1.0 + float(np.max(np.abs(want)))
        err = float(np.max(np.abs(got[table] - want)))
        print(f"{name} {table}: max error {err:.2e}, max |ref| {scale - 1:.2e}")
        assert err <= 1e-14 * scale, (table, err)

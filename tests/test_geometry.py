import dataclasses
import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from finsler4 import classify, frame, geometry, jets, metrics, oracle
from finsler4.classify import classify_metric
from finsler4.frame import covariant_derivatives
from finsler4.geometry import SingularMetric, point_eval
from finsler4.jets import DegreeCaps, OrderExceedsCaps
from finsler4.metrics import SamplePlan, make_builtin_metric, sample_domain

X0 = np.zeros(4)
ONES = np.ones(4)
Y2 = np.array([1.0, 2.0, 1.0, 1.0])


def quartic_g_closed_form(y: np.ndarray) -> np.ndarray:
    q = np.sum(y**4)
    return 3.0 * np.diag(y**2) / np.sqrt(q) - 2.0 * np.outer(y**3, y**3) / q**1.5


def berwald_moor_g_closed_form(y: np.ndarray) -> np.ndarray:
    p = float(np.prod(y))
    inv = 1.0 / y
    g = 0.125 * np.sqrt(p) * np.outer(inv, inv)
    np.fill_diagonal(g, -0.125 * np.sqrt(p) * inv**2)
    return g


def test_quartic_metric_at_symmetric_point():
    spec = make_builtin_metric("quartic_minkowski")
    pe = point_eval(spec, X0, ONES)
    metric, cartan = pe.metric, pe.cartan
    assert np.allclose(np.diag(metric.g), 1.25, atol=1e-12)
    off = metric.g[~np.eye(4, dtype=bool)]
    assert np.allclose(off, -0.25, atol=1e-12)
    assert metric.positive_definite
    # permutation symmetry forces the torsion vector to vanish here
    assert np.max(np.abs(cartan.C_vec)) < 1e-12


def test_quartic_metric_generic_point_closed_form():
    spec = make_builtin_metric("quartic_minkowski")
    metric = point_eval(spec, X0, Y2).metric
    assert np.max(np.abs(metric.g - quartic_g_closed_form(Y2))) < 1e-12


def test_berwald_moor_indefinite():
    spec = make_builtin_metric("berwald_moor")
    metric = point_eval(spec, X0, ONES).metric
    assert np.allclose(np.diag(metric.g), -0.125, atol=1e-12)
    off = metric.g[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 0.125, atol=1e-12)
    assert not metric.positive_definite
    y = np.array([0.7, 1.3, 0.9, 1.8])
    metric2 = point_eval(spec, X0, y).metric
    assert np.max(np.abs(metric2.g - berwald_moor_g_closed_form(y))) < 1e-12


def test_metric_inverse_and_euler_identities():
    families = [
        ("quartic_minkowski", None),
        ("berwald_moor", None),
        ("randers", {"b": ["0.1*x2", 0, 0, 0]}),
        ("expression", {"L": "sqrt(y1^2+2*y2^2+y3^2+y4^2)"}),
    ]
    for family, params in families:
        spec = make_builtin_metric(family, params)
        for x, y in sample_domain(spec.domain, SamplePlan(count=16, seed=29)):
            pe = point_eval(spec, x, y)
            g = pe.metric.g
            assert np.max(np.abs(g @ pe.metric.g_inv - np.eye(4))) < 1e-9
            assert abs(y @ g @ y - pe.L**2) <= 1e-9 * (1 + pe.L**2)
            # g y = (1/2) dL^2/dy, torsion transvection vanishes
            half_grad = 0.5 * np.array(
                [jets.partial_extract(pe.L2_jet, jets.multi(4 + i)) for i in range(4)]
            )
            assert np.max(np.abs(g @ y - half_grad)) < 1e-9
            assert np.max(np.abs(np.einsum("ijk,k->ij", pe.cartan.C, y))) < 1e-9
            # symmetry is structural; this guards the index bookkeeping
            C = pe.cartan.C
            assert np.max(np.abs(C - C.transpose(1, 0, 2))) < 1e-12
            assert np.max(np.abs(C - C.transpose(0, 2, 1))) < 1e-12


def test_locally_minkowski_has_flat_connections():
    for family in ("quartic_minkowski", "berwald_moor"):
        spec = make_builtin_metric(family)
        for x, y in sample_domain(spec.domain, SamplePlan(count=4, seed=31)):
            pe = point_eval(spec, x, y)
            spray, conn = pe.spray, pe.connection
            assert np.max(np.abs(spray.G)) < 1e-12
            assert np.max(np.abs(spray.N)) < 1e-12
            assert np.max(np.abs(spray.G_hess3)) < 1e-12
            assert np.max(np.abs(conn.F)) < 1e-12


def test_homothety_keeps_spray():
    base = make_builtin_metric("quartic_minkowski")
    lifted = metrics.make_conformal(base, "0.3")
    for x, y in sample_domain(base.domain, SamplePlan(count=4, seed=37)):
        spray_b = point_eval(base, x, y).spray
        spray_l = point_eval(lifted, x, y).spray
        assert np.max(np.abs(spray_l.G - spray_b.G)) < 1e-10


def test_randers_nonconstant_drift_curves():
    spec = make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]})
    x, y = sample_domain(spec.domain, SamplePlan(count=1, seed=41))[0]
    spray = point_eval(spec, x, y).spray
    assert np.max(np.abs(spray.N)) > 1e-4
    ora = oracle.oracle_tensors(spec, x, y)
    assert oracle.relative_error(spray.N, ora.N) < 1e-5


def test_deflection_identity():
    # the horizontal connection transvected by y reproduces the nonlinear one
    for family, params in (
        ("randers", {"b": ["0.1*x2", 0, 0, 0]}),
        ("riemannian", {"g0": [["1+0.1*sin(x1)", 0, 0, 0], [0, "1+0.05*x2^2", 0, 0],
                               [0, 0, 1, 0], [0, 0, 0, 1]]}),
    ):
        spec = make_builtin_metric(family, params)
        for x, y in sample_domain(spec.domain, SamplePlan(count=6, seed=43)):
            pe = point_eval(spec, x, y)
            lhs = np.einsum("ijk,j->ik", pe.connection.F, y)
            scale = 1.0 + np.max(np.abs(pe.spray.N))
            assert np.max(np.abs(lhs - pe.spray.N)) < 1e-7 * scale


def test_spray_cubic_matches_differenced_connection():
    # independent route: second differences of N(y) give the third
    # y-derivatives of the spray, since N is its first derivative
    spec = make_builtin_metric("randers", {"b": ["0.15*x1", "0.1*x2", 0, 0]})
    x, y = sample_domain(spec.domain, SamplePlan(count=1, seed=47))[0]
    pe = point_eval(spec, x, y)
    h = 1e-3

    def n_at(yy):
        return point_eval(spec, x, yy).spray.N

    n0 = pe.spray.N
    scale = 1.0 + np.max(np.abs(pe.spray.G_hess3))
    for a, b in ((0, 0), (1, 2), (3, 1)):
        if a == b:
            yp, ym = y.copy(), y.copy()
            yp[a] += h
            ym[a] -= h
            fd = (n_at(yp) - 2 * n0 + n_at(ym)) / h**2
        else:
            ypp, ypm, ymp, ymm = y.copy(), y.copy(), y.copy(), y.copy()
            ypp[a] += h; ypp[b] += h
            ypm[a] += h; ypm[b] -= h
            ymp[a] -= h; ymp[b] += h
            ymm[a] -= h; ymm[b] -= h
            fd = (n_at(ypp) - n_at(ypm) - n_at(ymp) + n_at(ymm)) / (4 * h**2)
        assert np.max(np.abs(pe.spray.G_hess3[:, a, b, :] - fd)) < 1e-4 * scale


def test_locally_minkowski_cartan_hderivs_vanish():
    for family in ("quartic_minkowski", "berwald_moor"):
        spec = make_builtin_metric(family)
        for x, y in sample_domain(spec.domain, SamplePlan(count=4, seed=53)):
            c_h, c_0 = point_eval(spec, x, y).cartan_h_derivatives
            assert np.max(np.abs(c_h)) < 1e-9
            assert np.max(np.abs(c_0)) < 1e-9


def test_randers_nonconstant_is_not_landsberg():
    spec = make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]})
    maxima = []
    for x, y in sample_domain(spec.domain, SamplePlan(count=4, seed=59)):
        _, c_0 = point_eval(spec, x, y).cartan_h_derivatives
        maxima.append(np.max(np.abs(c_0)))
    assert max(maxima) > 1e-4


def test_randers_constant_drift_is_locally_minkowski():
    spec = make_builtin_metric("randers", {"b": [0.2, 0.1, 0, 0]})
    for x, y in sample_domain(spec.domain, SamplePlan(count=4, seed=61)):
        pe = point_eval(spec, x, y)
        assert np.max(np.abs(pe.dx_g)) < 1e-12
        c_h, _ = pe.cartan_h_derivatives
        assert np.max(np.abs(c_h)) < 1e-12


def test_singular_metric_guard():
    spec = make_builtin_metric(
        "riemannian",
        {"g0": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1e-20]]},
    )
    with pytest.raises(SingularMetric):
        point_eval(spec, X0, Y2).metric
    with pytest.raises(SingularMetric):
        point_eval(spec, X0, Y2).spray
    # the stack is x-free, and its zero stages still read the metric
    assert point_eval(spec, X0, Y2).as_stack()._x_free
    for name in ("connection", "cartan_h_derivatives"):
        with pytest.raises(SingularMetric):
            getattr(point_eval(spec, X0, Y2), name)


@pytest.mark.parametrize("factor", [1e-5, 1.0, 1e5])
def test_singular_metric_guard_is_scale_invariant(factor):
    # g = factor^2 I at every point: perfectly conditioned at any scale
    spec = make_builtin_metric(
        "expression", {"L": f"{factor}*(y1^2+y2^2+y3^2+y4^2)^0.5"}
    )
    metric = point_eval(spec, X0, Y2).metric
    assert metric.positive_definite
    assert np.allclose(metric.g_inv * factor**2, np.eye(4), rtol=1e-12, atol=1e-12)
    records = classify_metric(spec, SamplePlan(count=2, seed=1)).points
    assert [r.eval_error for r in records] == [None, None]
    # a nearly singular g stays singular when scaled up
    singular = make_builtin_metric(
        "riemannian",
        {"g0": [[factor, 0, 0, 0], [0, factor, 0, 0], [0, 0, factor, 0], [0, 0, 0, 1e-20 * factor]]},
    )
    with pytest.raises(SingularMetric):
        point_eval(singular, X0, Y2).metric


def test_huge_metric_raises_no_float_warning():
    # (x1+2)^2000 puts g near the top of the float range; judging it by its
    # eigenvalues needs no determinant, which would overflow
    spec = make_builtin_metric(
        "expression", {"L": "(x1+2)^2000*(y1^2+y2^2+y3^2+y4^2)^0.5"}
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = classify_metric(spec, SamplePlan(count=8, seed=1)).points
    assert any(r.eval_error is None for r in records)


def test_covariant_derivative_of_constant_scalar():
    spec = make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]})
    x, y = sample_domain(spec.domain, SamplePlan(count=1, seed=67))[0]
    pe = point_eval(spec, x, y)
    field = jets.const(3.0, frame.FRAME_CAPS)
    cov = frame.scalar_derivatives(field.c, pe.spray)
    assert np.max(np.abs(cov.h)) == 0.0
    assert np.max(np.abs(cov.v)) == 0.0


def test_covariant_derivative_requires_depth(monkeypatch):
    spec = make_builtin_metric("quartic_minkowski")
    pe = point_eval(spec, X0, Y2)
    shallow = jets.const(1.0, DegreeCaps(0, 1))
    monkeypatch.setattr(frame, "FRAME_CAPS", shallow.caps)
    with pytest.raises(OrderExceedsCaps):
        frame.scalar_derivatives(shallow.c, pe.spray)


def test_covector_field_needs_four_components():
    spec = make_builtin_metric("quartic_minkowski")
    pe = point_eval(spec, X0, Y2)
    field = np.array([jets.const(1.0, frame.FRAME_CAPS).c] * 3)
    with pytest.raises(jets.InvalidArgument):
        covariant_derivatives(field, pe.spray, pe.connection)


def test_master_caps_are_necessary_for_spray_cubic():
    # with only four y-derivatives the cubic spray test is unreachable:
    # the inverse-metric factor consumes two, the extraction three more
    spec = make_builtin_metric("quartic_minkowski")
    jet = metrics.eval_L(spec, X0, Y2, DegreeCaps(1, 4))
    L2 = jet * jet
    gij = jets.derivative_jet(L2, jets.multi(4, 4))
    assert gij.caps.y_max == 2
    with pytest.raises(OrderExceedsCaps):
        jets.derivative_jet(gij, jets.multi(4, 4, 4))


def _perfbench_corpus():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(corpus)
    return corpus


def _perfbench_specs():
    # the benchmark's classify specs and conformal pairs, read from its corpus
    corpus = _perfbench_corpus()
    docs = [doc for _, doc, *_ in corpus.CLASSIFY_CORPUS]
    docs += [doc for _, doc in corpus.CONFORMAL_PAIRS]
    return [metrics.spec_from_json_dict(dict(doc))[0] for doc in docs]


def _leaves(value):
    """The arrays and numbers of a stage value or profile field."""
    if isinstance(value, tuple):
        for v in value:
            yield from _leaves(v)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _leaves(getattr(value, f.name))
    else:
        yield value


def _outputs(pe, prof):
    """Every stage value of a PointEval and every field of its profile (or
    the name of the refusal in its place), as shapes and bytes; the bytes
    keep the sign of each zero."""
    arrays = [pe.L_jet.c[0], *(a for name in geometry._STAGES for a in _leaves(getattr(pe, name)))]
    if isinstance(prof, frame.FrameError):
        out = [type(prof).__name__]
    else:
        fields = [getattr(prof, f.name) for f in dataclasses.fields(prof)
                  if f.name not in ("pe", "gauge_tag")]
        arrays += [*fields, *prof.residuals.values()]
        out = [repr(prof.gauge_tag), repr(list(prof.residuals))]
    return out + [(np.shape(a), np.asarray(a, dtype=float).tobytes()) for a in arrays]


def _lone_outputs(spec, x, y, base=None):
    pe = point_eval(spec, x, y, base)
    try:
        prof = frame.scalar_profile(pe)
    except frame.FrameError as err:
        prof = err
    return _outputs(pe, prof)


def _ring_outputs(spec, points):
    """Every tensor of PointEval and every array of scalar_profile, as bytes."""
    return [b for x, y in points for b in _lone_outputs(spec, x, y)]


def test_rings_cut_by_total_degree_change_no_bit(monkeypatch):
    # a coefficient of total degree d reads only factor coefficients of
    # degree <= d, so the master and frame rings cut to the degrees their
    # readers use give every tensor and profile array bit for bit
    assert geometry.MASTER_CAPS == DegreeCaps(1, 5, 5)
    assert frame.FRAME_CAPS == DegreeCaps(1, 1, 1)
    for spec in _perfbench_specs():
        points = sample_domain(spec.domain, SamplePlan(count=8, seed=71))
        cut = _ring_outputs(spec, points)
        with monkeypatch.context() as m:
            m.setattr(geometry, "MASTER_CAPS", DegreeCaps(1, 5))
            m.setattr(frame, "FRAME_CAPS", DegreeCaps(1, 1))
            full = _ring_outputs(spec, points)
        assert cut == full


# the curved-alpha Randers metric: Berwald, not locally Minkowski
CURVED_ALPHA = {"family": "expression",
                "L": "sqrt(y1^2+(1+0.1*x1^2)^2*y2^2+y3^2+y4^2)+0.3*y3"}
_STAGES = ("metric", "cartan", "spray", "dx_g", "connection", "cartan_h_derivatives")


def _stack_outputs(pes):
    """Each member's outputs after one stacked evaluation of every stage and
    of the frame profile; every stage must be cached on the member."""
    stack = geometry.PointEval.stack(pes)
    profiles = frame.scalar_profile(stack)
    for name in _STAGES:
        getattr(stack, name)
    for pe in pes:
        assert all(name in vars(pe) for name in _STAGES)
    return [_outputs(pe, prof) for pe, prof in zip(pes, profiles)]


@pytest.mark.parametrize("size", [1, 2, 16])
def test_stack_members_equal_lone_evaluations_bit_for_bit(size):
    # a stack runs every stage once for all members, and each member must
    # get exactly the bits of its own evaluation alone
    docs = [{"family": "quartic_minkowski"},
            {"family": "randers", "params": {"b": ["0.1*x2", 0, 0, 0]}},
            {"family": "expression", "L": _perfbench_corpus().EXPRESSION_L},
            CURVED_ALPHA]
    for doc in docs:
        spec = metrics.spec_from_json_dict(dict(doc))[0]
        points = sample_domain(spec.domain, SamplePlan(count=16, seed=83))
        for start in range(0, 16, size):
            chunk = points[start:start + size]
            got = _stack_outputs([point_eval(spec, x, y) for x, y in chunk])
            assert got == [_lone_outputs(spec, x, y) for x, y in chunk], (doc, start)
    # both spaces of the benchmark's conformal pairs, stacked together
    for _, doc in _perfbench_corpus().CONFORMAL_PAIRS:
        lifted = metrics.spec_from_json_dict(dict(doc))[0]
        points = sample_domain(lifted.domain, SamplePlan(count=16, seed=89))
        for start in range(0, 16, size):
            pes, want = [], []
            for x, y in points[start:start + size]:
                base = point_eval(lifted.base, x, y)
                pes += [base, point_eval(lifted, x, y, base)]
                want += [_lone_outputs(lifted.base, x, y),
                         _lone_outputs(lifted, x, y, point_eval(lifted.base, x, y))]
            assert _stack_outputs(pes) == want, (doc, start)


def test_a_point_that_is_not_four_numbers_is_refused():
    # not cut to its first four components, nor left to fail with a bare error
    spec = make_builtin_metric("quartic_minkowski")
    y = [1.0, 2.0, 1.0, 1.0]
    for x, y in ((np.zeros(5), y), (np.zeros(3), y), ([[0.0, 0.0], [0.0]], y),
                 (np.zeros(4), [*y, 3.0]), (np.zeros(4), "abcd")):
        with pytest.raises(jets.InvalidArgument, match="must be four numbers"):
            point_eval(spec, x, y)
        with pytest.raises(jets.InvalidArgument, match="must be four numbers"):
            metrics.eval_L(spec, x, y, DegreeCaps(1, 1))


def test_stack_of_stacks_is_refused():
    spec = make_builtin_metric("quartic_minkowski")
    stack = geometry.PointEval.stack([point_eval(spec, X0, Y2)])
    with pytest.raises(jets.InvalidArgument):
        geometry.PointEval.stack([stack])
    with pytest.raises(jets.InvalidArgument):
        geometry.PointEval.stack([])


# -- x-free stacks -------------------------------------------------------------

# L^2 jets of x-degree bound 0: their stacks take the zero stages
X_FREE_DOCS = [
    {"family": "quartic_minkowski"},
    {"family": "berwald_moor"},
    {"family": "randers", "params": {"b": [0.1, 0, -0.2, 0.05]}},
    {"family": "riemannian",
     "params": {"g0": [[2, 0.1, 0, 0], [0.1, 1, 0, -0.3], [0, 0, 1, 0], [0, -0.3, 0, 3]]}},
    {"family": "expression", "L": "(y1^6+y2^6+y3^6+y4^6)^0.16666666666666666"},
    {"family": "quartic_minkowski", "sigma": "0.3"},  # a homothetic lift
]
# x-free in value, but 0*x1*y1 gives the jet an x-degree bound of 1
ZERO_X_TERM = {"family": "expression", "L": "sqrt(y1^2+y2^2+y3^2+y4^2)+0*x1*y1"}


def _general_path(monkeypatch):
    """Make every stack built from here on take the general path."""
    stack = geometry.PointEval.stack

    def general(members):
        st = stack(members)
        st._x_free = False
        return st

    monkeypatch.setattr(geometry.PointEval, "stack", staticmethod(general))


def _x_free_outputs(spec, points):
    """_outputs of each point evaluated alone, then of all of them as one
    stack (each member's own refusal, if any)."""
    lone = [_lone_outputs(spec, x, y) for x, y in points]
    pes = [point_eval(spec, x, y) for x, y in points]
    return lone + [_outputs(pe, got) for pe, got in zip(pes, classify.evaluate_stack(pes))]


@pytest.mark.parametrize("doc", X_FREE_DOCS, ids=lambda d: d.get("L") or str(d))
def test_x_free_stacks_change_no_bit(doc, monkeypatch):
    # the zero stages equal what the general formulas give, +0.0 everywhere
    spec = metrics.spec_from_json_dict(dict(doc))[0]
    points = sample_domain(spec.domain, SamplePlan(count=12, seed=97))
    stack = geometry.PointEval.stack([point_eval(spec, x, y) for x, y in points])
    assert stack._x_free
    assert not np.abs(stack.spray.G_hess3).any() and not np.signbit(stack.spray.N).any()
    fast = _x_free_outputs(spec, points)
    with monkeypatch.context() as m:
        _general_path(m)
        assert not geometry.PointEval.stack([point_eval(spec, *points[0])])._x_free
        general = _x_free_outputs(spec, points)
    assert fast == general


def _jet_reads(monkeypatch, pe):
    """Calls of geometry.derivative_tensor made by the stages after cartan."""
    pe.cartan
    calls = []
    read = geometry.derivative_tensor
    with monkeypatch.context() as m:
        m.setattr(geometry, "derivative_tensor", lambda *a, **k: calls.append(1) or read(*a, **k))
        for name in ("dx_g", "spray", "connection", "cartan_h_derivatives"):
            getattr(pe, name)
    return len(calls)


def test_only_a_jet_without_x_degree_takes_the_zero_stages(monkeypatch):
    quartic = make_builtin_metric("quartic_minkowski")
    assert _jet_reads(monkeypatch, point_eval(quartic, X0, Y2)) == 0
    spec = metrics.spec_from_json_dict(dict(ZERO_X_TERM))[0]
    pe = point_eval(spec, X0, Y2)
    assert pe.L2_jet.deg[0] == 1 and not pe.as_stack()._x_free
    assert _jet_reads(monkeypatch, pe) > 0


def test_a_stack_with_an_x_dependent_member_takes_the_general_path():
    specs = [make_builtin_metric("quartic_minkowski"),
             make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]}),
             metrics.spec_from_json_dict(dict(CURVED_ALPHA))[0]]
    x = np.array([0.1, 0.2, 0.3, 0.4])
    pes = [point_eval(spec, x, Y2) for spec in specs]
    assert [pe.as_stack()._x_free for pe in pes] == [True, False, False]
    stack = geometry.PointEval.stack(pes)
    assert not stack._x_free
    for name in geometry._STAGES:
        getattr(stack, name)
    # the members take different seeds, so their frames are built one by one
    outcomes = classify.evaluate_stack(pes)
    got = [_outputs(pe, outcome) for pe, outcome in zip(pes, outcomes)]
    assert got == [_lone_outputs(spec, x, Y2) for spec in specs]


# -- the Landsberg tensor from the spray ---------------------------------------

_RANDERS_L = "sqrt(y1^2+y2^2+y3^2+y4^2)+0.1*x2*y1"
LANDSBERG_DOCS = [
    {"family": "randers", "params": {"b": ["0.2*sin(x1)", "0.1*x3", 0, 0.05]}},
    # a curved alpha with an alpha-parallel drift: Berwald, not locally Minkowski
    {"family": "expression", "L": "sqrt(y1^2+(1+0.1*x1^2)^2*y2^2+y3^2+y4^2)+0.3*y3"},
    # g is indefinite at some of these points
    {"family": "expression", "L": "sqrt(y1^2+y2^2+y3^2+x1*y4^2)+0.1*x2*y1"},
    {"family": "randers", "params": {"b": ["0.1*x2", 0, 0, 0]},
     "sigma": "0.1*x1+0.3*x3^2-0.2*sin(x4)"},
    {"family": "expression", "L": f"1e-3*({_RANDERS_L})"},
    {"family": "expression", "L": f"1e3*({_RANDERS_L})"},
]


def _landsberg_points():
    corpus = _perfbench_corpus()
    docs = [doc for _, doc, *_ in corpus.CLASSIFY_CORPUS] + LANDSBERG_DOCS
    for doc in docs:
        spec = metrics.spec_from_json_dict(dict(doc))[0]
        for x, y in sample_domain(spec.domain, SamplePlan(8, 5)):
            yield spec, x, y
    # the points of the golden frame reports
    yield make_builtin_metric("quartic_minkowski"), X0, Y2
    randers = make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]})
    yield randers, np.array([0.1, 0.2, 0.3, 0.4]), Y2


def test_landsberg_tensor_is_the_spray_cubic_transvected_by_y():
    # C_0 = C_h(., ., ., y) is the Landsberg tensor, -1/2 y_i G^i_jkl with
    # y_i = g_ij y^j (Bao-Chern-Shen 2000): the order-5 h-derivative route and
    # the spray cubic read different partials of the same L^2 jet
    checked = 0
    for spec, x, y in _landsberg_points():
        pe = point_eval(spec, x, y)
        try:
            C_0 = pe.cartan_h_derivatives[1]
        except jets.Finsler4Error:  # outside the domain, or a singular g
            continue
        g, D = pe.metric.g, pe.spray.G_hess3
        gap = np.abs(C_0 + 0.5 * np.einsum("i,ijkl->jkl", g @ y, D)).max()
        bound = 1e-12 * np.abs(g).max() * (1.0 + np.linalg.norm(y) * np.abs(D).max())
        assert gap <= bound, (spec, x, y, gap / bound)
        checked += 1
    assert checked == 90

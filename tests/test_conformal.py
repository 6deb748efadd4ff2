import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finsler4 import conformal, exprdsl, geometry, jets, metrics
from finsler4.classify import classify_metric
from finsler4.conformal import (
    CASE_ALL,
    CASE_HOMOTHETIC,
    CASE_M,
    CASE_N_P,
    ExtractionUnreliable,
    _case,
    audit_pair,
    berwald_case_conditions,
    evaluate_point,
    evaluate_points,
    invariance_check,
    landsberg_case_conditions,
    sigma_components,
)
from finsler4.frame import SCALAR_NAMES, scalar_profile
from finsler4.metrics import SamplePlan, make_builtin_metric, make_conformal, sample_domain

QUARTIC = make_builtin_metric("quartic_minkowski")
X1 = np.array([0.5, -0.3, 0.2, 0.1])
YGEN = np.array([1.1, 2.0, 0.9, 1.3])


def profiles(pair, x, y):
    """Frame profiles of the base and the rescaled space at one point."""
    return tuple(
        scalar_profile(geometry.point_eval(spec, x, y)) for spec in (pair.base, pair)
    )


def sigma_at(pair, x, y):
    return sigma_components(*profiles(pair, x, y))


def invariance_at(pair, x, y):
    base, lifted = profiles(pair, x, y)
    return invariance_check(base, lifted, sigma_components(base, lifted))


def gradient_pair(spec, cov):
    """spec rescaled by the linear factor whose gradient is the covector cov."""
    src = "+".join(f"({format(float(c), '.17g')})*x{i+1}" for i, c in enumerate(cov))
    return make_conformal(spec, src)


def test_lift_rejects_direction_dependent_factor():
    with pytest.raises(metrics.SigmaUsesY):
        make_conformal(QUARTIC, "0.1*y1")


def test_a_spec_without_a_factor_is_refused_before_any_point():
    with pytest.raises(conformal.MissingSigma):
        audit_pair(QUARTIC, SamplePlan(count=0))
    with pytest.raises(conformal.MissingSigma):
        evaluate_points(QUARTIC, [(X1, YGEN)])


def test_profiles_of_a_space_without_a_factor_are_refused():
    # sigma is read from the spec of the rescaled space's profile
    base = scalar_profile(geometry.point_eval(QUARTIC, X1, YGEN))
    other = scalar_profile(geometry.point_eval(QUARTIC, X1, 2 * YGEN))
    for fn in (sigma_components, evaluate_point):
        with pytest.raises(conformal.MissingSigma):
            fn(base, other)


def test_zero_factor_is_identity():
    pair = make_conformal(QUARTIC, "0")
    rep = invariance_at(pair, X1, YGEN)
    finite = {k: v for k, v in rep.items() if not math.isnan(v)}
    assert max(finite.values()) < 1e-10


def test_constant_factor_scales_metric():
    pair = make_conformal(QUARTIC, "0.3")
    base = geometry.point_eval(pair.base, X1, YGEN)
    lifted = geometry.point_eval(pair, X1, YGEN)
    assert np.max(np.abs(lifted.metric.g - math.exp(0.6) * base.metric.g)) <= 1e-10


def test_homothety_zero_components():
    pair = make_conformal(QUARTIC, "0.3")
    sc = sigma_at(pair, X1, YGEN)
    assert max(abs(v) for v in sc.components[:4]) <= 1e-10
    assert np.max(np.abs(sc.spray_block())) <= 1e-10
    assert _case(sc)[0] == CASE_HOMOTHETIC


def test_sigma_gradient_reconstruction():
    pair = make_conformal(QUARTIC, "0.1*x1+0.05*x2^2")
    base, lifted = profiles(pair, X1, YGEN)
    sc = sigma_components(base, lifted)
    recon = sc.frame_grad() @ base.e_flat
    assert np.max(np.abs(recon - sc.sigma_grad)) <= 1e-9


def test_extraction_residuals_small_and_layout_holds():
    pair = make_conformal(QUARTIC, "0.1*x1+0.05*x2^2")
    sc = sigma_at(pair, X1, YGEN)
    for key, val in sc.extraction_residuals.items():
        assert val <= 1e-7 * sc.extraction_scale, (key, val)


def test_spray_difference_transvection_identity():
    pair = make_conformal(QUARTIC, "0.1*x1+0.05*x2^2")
    for x, y in sample_domain(QUARTIC.domain, SamplePlan(count=6, seed=71)):
        sc = sigma_at(pair, x, y)
        assert sc.extraction_residuals["spray_transvection"] <= 1e-7


_SPRAY_LAW_PAIRS = (
    ({"family": "randers", "params": {"b": ["0.1*x2", 0, 0, 0]}},
     "0.1*x1+0.3*x3^2-0.2*sin(x4)"),
    ({"family": "quartic_minkowski"}, "0.2*x1+0.1*sin(x2)"),
    # a curved alpha with an alpha-parallel beta: Berwald, not flat in the chart
    ({"family": "expression", "L": "sqrt(y1^2+(1+0.1*x1^2)^2*y2^2+y3^2+y4^2)+0.3*y3"},
     "0.1*x2-0.05*x1*x3"),
)


def _spray_law_cases():
    from regen_goldens import SPECS

    for doc in SPECS.values():
        if "sigma" in doc:
            yield metrics.spec_from_json_dict(doc)
    for doc, sigma in _SPRAY_LAW_PAIRS:
        spec, _ = metrics.spec_from_json_dict({**doc, "sigma": sigma})
        yield spec, SamplePlan(8, 5)


def test_conformal_spray_law():
    """G-bar = G + sigma_0 y - L^2/2 g^-1 d sigma with sigma_0 = d sigma . y
    (Hashiguchi 1976), the rescaled space measured from its own jet of L."""
    checked = 0
    for spec, plan in _spray_law_cases():
        for x, y in sample_domain(spec.domain, plan):
            try:
                base = geometry.point_eval(spec.base, x, y)
                lifted = geometry.point_eval(spec, x, y)
                g_bar = lifted.spray.G
            except jets.Finsler4Error:
                continue
            grad = jets.derivative_tensor(lifted.sigma, 1, 0)
            predicted = (base.spray.G + (grad @ y) * y
                         - 0.5 * base.L**2 * (base.metric.g_inv @ grad))
            assert np.abs(predicted - g_bar).max() <= 1e-14 * np.abs(g_bar).max(), (spec, x, y)
            checked += 1
    # every point but the one eval_error of the golden indefinite conformal sample
    assert checked == 37


def test_case_dispatch_constructed_gradients():
    # aim the gradient along chosen frame covectors at the evaluation point
    prof = scalar_profile(geometry.point_eval(QUARTIC, X1, YGEN))
    flat = prof.e_flat

    sc = sigma_at(gradient_pair(QUARTIC, flat[2] + flat[3]), X1, YGEN)
    case, _ = _case(sc)[:2]
    assert case == CASE_N_P
    assert abs(sc.components[1]) < 1e-9
    assert sc.components[2] == pytest.approx(1.0, rel=1e-9)
    assert sc.components[3] == pytest.approx(1.0, rel=1e-9)

    sc = sigma_at(gradient_pair(QUARTIC, flat[1]), X1, YGEN)
    assert _case(sc)[0] == CASE_M

    sc = sigma_at(gradient_pair(QUARTIC, flat[1] + flat[2] + flat[3]), X1, YGEN)
    assert _case(sc)[0] == CASE_ALL


def test_landsberg_conditions_homothetic_all_zero():
    pair = make_conformal(QUARTIC, "0.25")
    prof, lifted = profiles(pair, X1, YGEN)
    sc = sigma_components(prof, lifted)
    case, near, out = landsberg_case_conditions(prof, sc)
    assert case == CASE_HOMOTHETIC
    assert not near
    assert max(v["residual"] for v in out.values()) <= 1e-10


def test_landsberg_conditions_fail_with_nonlandsberg_lift():
    pair = make_conformal(QUARTIC, "0.1*x1")
    failures = 0
    for rep in evaluate_points(pair, sample_domain(QUARTIC.domain, SamplePlan(count=8, seed=73))):
        if rep.frame_error:
            continue
        ratios = [
            v["residual"] / (v["scale"] + 1e-12)
            for k, v in rep.landsberg_residuals.items()
            if k.startswith("landsberg:")
        ]
        barred = rep.direct_barred["max_cartan_hderiv_transvected"]
        scale = rep.direct_barred["hderiv_scale"]
        if max(ratios) > 1e-4:
            failures += 1
            assert barred > 1e-4 * scale
    assert failures > 0


def test_berwald_conditions_homothetic_zero():
    pair = make_conformal(QUARTIC, "0.25")
    prof, lifted = profiles(pair, X1, YGEN)
    sc = sigma_components(prof, lifted)
    _, _, out = berwald_case_conditions(prof, sc)
    assert max(v["residual"] for v in out.values()) <= 1e-10


def test_berwald_conditions_reject_bad_extraction():
    pair = make_conformal(QUARTIC, "0.1*x1")
    prof, lifted = profiles(pair, X1, YGEN)
    sc = sigma_components(prof, lifted)
    corrupted = dataclasses.replace(
        sc, extraction_residuals={"sym_mn": 1.0}, extraction_scale=1.0
    )
    with pytest.raises(ExtractionUnreliable):
        berwald_case_conditions(prof, corrupted)


def test_invariance_suite_nonhomothetic():
    pair = make_conformal(QUARTIC, "0.1*x1+0.05*x2^2")
    for x, y in sample_domain(QUARTIC.domain, SamplePlan(count=16, seed=79)):
        out = invariance_at(pair, x, y)
        assert out["gauge_match"] == 0.0
        for k, v in out.items():
            if k.startswith(("covector_scale", "vector_scale")):
                assert v <= 1e-9, (k, v)
            elif k in ("metric_scale", "inverse_metric_scale", "torsion_scale",
                       "mixed_torsion_invariance"):
                assert v <= 1e-9, (k, v)
            elif k.startswith("main_scalar:"):
                assert v <= 1e-7, (k, v)
            elif k.startswith(("hbar1", "jbar1", "kbar1")):
                assert v <= 1e-6, (k, v)
            elif k.startswith("scalar_hderiv_l_law:"):
                assert v <= 1e-6, (k, v)


def test_first_component_laws_on_drift_base():
    # base need not be flat for the first-component transformation laws
    base = make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]})
    pair = make_conformal(base, "0.1*x1")
    for x, y in sample_domain(base.domain, SamplePlan(count=6, seed=83)):
        out = invariance_at(pair, x, y)
        for key in ("hbar1_law", "jbar1_law", "kbar1_law"):
            assert out[key] <= 1e-6, (key, out[key])
        # the scalar law needs a position-independent base, so it is gated off
        assert not any(k.startswith("scalar_hderiv_l_law") for k in out)


def test_audit_cooccurrence_homothetic_and_generic():
    plan = SamplePlan(count=8, seed=89)
    hom = audit_pair(make_conformal(QUARTIC, "0.4"), plan)
    assert hom.landsberg_summary["disagree"] == 0
    assert hom.berwald_summary["disagree"] == 0
    assert hom.landsberg_summary["agree"] > 0

    gen = audit_pair(make_conformal(QUARTIC, "0.1*x1"), plan)
    assert gen.landsberg_summary["disagree"] == 0
    assert gen.berwald_summary["disagree"] == 0
    assert gen.landsberg_summary["agree"] > 0
    assert gen.berwald_summary["agree"] > 0


def test_case_dispatch_flags_near_threshold_components():
    prof = scalar_profile(geometry.point_eval(QUARTIC, X1, YGEN))
    flat = prof.e_flat

    # an m-component hovering just above the dispatch threshold is flagged
    sc = sigma_at(gradient_pair(QUARTIC, 1.5e-8 * flat[1] + 1.0 * flat[2]), X1, YGEN)
    case, near = _case(sc)[:2]
    assert near
    # gradient along the supporting covector alone: anomalous pattern
    sc = sigma_at(gradient_pair(QUARTIC, flat[0]), X1, YGEN)
    case, near = _case(sc)[:2]
    assert case == conformal.CASE_SUPPORTING_ONLY


def test_every_point_gets_exactly_one_case():
    pair = make_conformal(QUARTIC, "0.1*x1+0.05*x2^2")
    all_cases = {
        conformal.CASE_ALL, conformal.CASE_M_N, conformal.CASE_M_P,
        conformal.CASE_N_P, conformal.CASE_M, conformal.CASE_N, conformal.CASE_P,
        conformal.CASE_HOMOTHETIC, conformal.CASE_SUPPORTING_ONLY,
    }
    for rep in evaluate_points(pair, sample_domain(QUARTIC.domain, SamplePlan(count=16, seed=91))):
        if rep.frame_error:
            continue
        assert rep.case in all_cases


def test_profile_functions_match_evaluate_point_bit_for_bit():
    # the public functions, fed the two profiles of lone evaluations, report
    # what evaluate_points does with both spaces in one stack
    drift = make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]})
    cases = [(make_conformal(QUARTIC, "0.1*x1+0.05*x2^2"), X1, YGEN)]
    cases += [(make_conformal(drift, "0.1*x1"), x, y)
              for x, y in sample_domain(drift.domain, SamplePlan(count=3, seed=97))]
    for pair, x, y in cases:
        rep = evaluate_points(pair, [(x, y)])[0]
        base, lifted = profiles(pair, x, y)
        sc = sigma_components(base, lifted)
        for f in dataclasses.fields(sc):
            got, want = getattr(sc, f.name), getattr(rep.sigma, f.name)
            if isinstance(got, np.ndarray):
                assert np.array_equal(got, want), f.name
            else:
                assert got == want, f.name
        assert invariance_check(base, lifted, sc) == rep.invariance_residuals
        assert evaluate_point(base, lifted).invariance_residuals == rep.invariance_residuals


def test_evaluate_point_builds_one_point_eval_per_space(monkeypatch):
    # base and rescaled space once each; the profiles, sigma_components and
    # invariance_check all read them
    calls = []
    init = geometry.PointEval.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(geometry.PointEval, "__init__", counting_init)
    evaluate_points(make_conformal(QUARTIC, "0.1*x1"), [(X1, YGEN)])
    assert len(calls) == 2


# the two conformal pairs of the benchmark's conformal-audit workload
_BENCH_PAIRS = (
    make_conformal(make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]}), "0.1*x1"),
    make_conformal(QUARTIC, "0.2*x1+0.1*sin(x2)"),
)


@pytest.mark.parametrize("pair", _BENCH_PAIRS)
def test_lifted_jets_built_from_the_base_jet_match_a_fresh_evaluation(pair):
    for x, y in sample_domain(pair.base.domain, SamplePlan(count=4, seed=29)):
        base = geometry.point_eval(pair.base, x, y)
        lifted = geometry.point_eval(pair, x, y, base)
        fresh = geometry.point_eval(pair, x, y)
        assert lifted.L_jet.c.tobytes() == fresh.L_jet.c.tobytes()
        assert lifted.L2_jet.c.tobytes() == fresh.L2_jet.c.tobytes()


def test_lifted_point_eval_needs_the_base_at_the_same_point():
    pair = _BENCH_PAIRS[1]
    base = geometry.point_eval(pair.base, X1, YGEN)
    with pytest.raises(jets.InvalidArgument):
        geometry.point_eval(pair, X1, 2 * YGEN, base)
    with pytest.raises(jets.InvalidArgument):
        geometry.point_eval(pair.base, X1, YGEN, base)


def test_audit_runs_the_base_family_once_per_point(monkeypatch):
    pair = _BENCH_PAIRS[0]
    calls = []
    family = metrics._eval_family

    def counting(spec, env):
        calls.append(spec)
        return family(spec, env)

    monkeypatch.setattr(metrics, "_eval_family", counting)
    audit = audit_pair(pair, SamplePlan(count=5, seed=2))
    assert all(rep.eval_error is None for rep in audit.reports)
    assert calls == [pair.base] * 5


def test_the_audit_evaluates_sigma_once_per_point(monkeypatch):
    # sigma's expression runs once per point, inside the lift; the conformal
    # layer reads sigma and its gradient off the lift's jet of sigma
    pair = _BENCH_PAIRS[1]
    calls = []
    eval_expr = exprdsl.eval_expr

    def counting(node, env):
        if node is pair.sigma_ast:
            calls.append(env)
        return eval_expr(node, env)

    monkeypatch.setattr(exprdsl, "eval_expr", counting)
    audit = audit_pair(pair, SamplePlan(count=5, seed=2))
    assert all(rep.eval_error is None for rep in audit.reports)
    assert len(calls) == 5


def _first_order_sigma(ast, x) -> np.ndarray:
    """[sigma(x), d sigma / dx] from sigma evaluated on its own, in the ring
    of first-order jets in x."""
    caps = jets.DegreeCaps(1, 0)
    env = [jets.variable(i, v, caps) for i, v in enumerate(x)] + [0.0] * 4
    val = metrics.guarded(lambda: exprdsl.eval_expr(ast, env), "sigma")
    if not isinstance(val, jets.JetScalar):
        return np.array([float(val), 0.0, 0.0, 0.0, 0.0])
    return np.array([val.base, *jets.derivative_tensor(val, 1, 0)])


def _sigma_sources(inner):
    pair = st.tuples(inner, st.sampled_from("+-*/"), inner)
    powers = st.sampled_from(["2", "3", "-1", "-2", "0.5", "-0.5", "1.5", "-0.25"])
    return st.one_of(
        pair.map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        st.tuples(inner, powers).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(st.sampled_from(sorted(exprdsl.FUNCTIONS)), inner).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
        inner.map(lambda src: f"-({src})"),
    )


_SIGMA_SOURCES = st.recursive(
    st.sampled_from(["x1", "x2", "x3", "x4", "0", "0.5", "2", "0.1", "3.7"]),
    _sigma_sources, max_leaves=8,
)
_LIFT_BASES = (QUARTIC, make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]}))


@settings(max_examples=150, deadline=None)
@given(
    base=st.sampled_from(_LIFT_BASES),
    sigma=_SIGMA_SOURCES,
    x=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
)
def test_the_lift_keeps_sigma_as_its_first_order_evaluation(base, sigma, x):
    # the jet of sigma that L is built from, read to first order, is sigma
    # evaluated on its own in the ring of first-order jets, bit for bit
    # (tobytes: signed zeros included); where that fails, so does the lift
    spec = make_conformal(base, sigma)
    try:
        want = _first_order_sigma(spec.sigma_ast, x)
    except jets.DomainViolation:
        with pytest.raises(jets.DomainViolation):
            geometry.point_eval(spec, x, YGEN)
        return
    for base_pe in (None, geometry.point_eval(base, x, YGEN)):
        try:
            lifted = geometry.point_eval(spec, x, YGEN, base_pe)
        except jets.DomainViolation:  # a coefficient of higher order fails
            continue
        got = np.array([lifted.sigma.base, *jets.derivative_tensor(lifted.sigma, 1, 0)])
        assert got.tobytes() == want.tobytes(), (sigma, x, got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_overflowing_factor_keeps_its_eval_error_records():
    # exp(exp(1000*x1)) overflows for x1 > 0.0066: the audit records exactly
    # the points and messages that evaluating the rescaled space alone gives
    pair = make_conformal(QUARTIC, "exp(1000*x1)")
    plan = SamplePlan(count=8, seed=1)
    errors = [rep.eval_error for rep in audit_pair(pair, plan).reports]
    assert [e for e in errors if e is not None] == ["the jet of L is not finite here"] * 4
    assert [rec.eval_error for rec in classify_metric(pair, plan).points] == errors


def test_direct_barred_measurement_equals_classify_of_the_lifted_space():
    # one h-derivative measurement: the audit reports for the rescaled space
    # exactly what classify records for it, scale grouping included
    pair = make_conformal(make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]}), "0.1*x1")
    plan = SamplePlan(count=8, seed=3)
    records = classify_metric(pair, plan).points
    points = sample_domain(pair.domain, plan)
    assert len(records) == len(points) == 8
    for rec, (x, y), rep in zip(records, points, evaluate_points(pair, points)):
        assert np.array_equal(rec.x, x) and np.array_equal(rec.y, y)
        direct = rep.direct_barred
        for key in ("max_cartan_hderiv", "max_cartan_hderiv_transvected", "hderiv_scale"):
            assert direct[key] == getattr(rec, key), key


# -- the condition systems written out term by term ---------------------------
#
# The reference below spells out, label by label, the Landsberg and Berwald
# condition systems and the first-component and scalar h-derivative laws, with
# one hand-signed term list per label.  conformal.py derives the same systems
# from the sigma support and the symmetric spray block; each of its terms must
# equal the written-out term or its negation, so every residual and scale is
# bit-identical.

_REF_CASES = {
    (True, True, True): CASE_ALL,
    (True, True, False): conformal.CASE_M_N,
    (True, False, True): conformal.CASE_M_P,
    (False, True, True): CASE_N_P,
    (True, False, False): CASE_M,
    (False, True, False): conformal.CASE_N,
    (False, False, True): conformal.CASE_P,
}


def _ref_entry(*terms):
    return {"residual": abs(math.fsum(terms)), "scale": math.fsum(abs(t) for t in terms)}


def _ref_case(sc):
    pattern = tuple(abs(c) >= conformal.TAU_SIGMA for c in sc.components[1:4])
    if any(pattern):
        return _REF_CASES[pattern]
    if abs(sc.components[0]) < conformal.TAU_SIGMA:
        return CASE_HOMOTHETIC
    return conformal.CASE_SUPPORTING_ONLY


def _ref_landsberg(profile, sc):
    case = _ref_case(sc)
    s2, s3, s4 = sc.components[1:4]
    vd = profile.v_derivs
    h, j, k, u, v, w = profile.vectors
    out = {}
    for row, name in enumerate(SCALAR_NAMES):
        out[f"landsberg:scalar:{name}"] = _ref_entry(
            s2 * vd[row, 1], s3 * vd[row, 2], s4 * vd[row, 3]
        )
    out["landsberg:h1"] = _ref_entry(h[0], s2 * u[1], s3 * u[2], s4 * u[3])
    out["landsberg:j1"] = _ref_entry(j[0], s2 * v[1], s3 * v[2], s4 * v[3])
    out["landsberg:k1"] = _ref_entry(k[0], s2 * w[1], s3 * w[2], s4 * w[3])
    reduced = {
        conformal.CASE_M_N: lambda row: _ref_entry(s2 * vd[row, 1], s3 * vd[row, 2]),
        conformal.CASE_M_P: lambda row: _ref_entry(s2 * vd[row, 1], s4 * vd[row, 3]),
        CASE_N_P: lambda row: _ref_entry(s3 * vd[row, 2], s4 * vd[row, 3]),
        CASE_M: lambda row: _ref_entry(vd[row, 1]),
        conformal.CASE_N: lambda row: _ref_entry(vd[row, 2]),
        conformal.CASE_P: lambda row: _ref_entry(vd[row, 3]),
    }.get(case)
    if reduced is not None:
        for row, name in enumerate(SCALAR_NAMES):
            out[f"reduced:{case}:{name}"] = reduced(row)
    return out


def _ref_berwald(profile, sc):
    case = _ref_case(sc)
    s5, s6, s7, s8, s9, s10 = sc.components[4:]
    vd = profile.v_derivs
    out = {}
    for row, name in enumerate(SCALAR_NAMES):
        a2, a3, a4 = vd[row, 1], vd[row, 2], vd[row, 3]
        out[f"berwald:{name}:m"] = _ref_entry(-s5 * a2, s6 * a3, s7 * a4)
        out[f"berwald:{name}:n"] = _ref_entry(s6 * a2, -s8 * a3, -s9 * a4)
        out[f"berwald:{name}:p"] = _ref_entry(s7 * a2, -s9 * a3, -s10 * a4)
    if case == CASE_M:
        for row, name in enumerate(SCALAR_NAMES):
            a3, a4 = vd[row, 2], vd[row, 3]
            out[f"ratio:{case}:{name}:a"] = _ref_entry(s6 * a3, s7 * a4)
            out[f"ratio:{case}:{name}:b"] = _ref_entry(s8 * a3, s9 * a4)
            out[f"ratio:{case}:{name}:c"] = _ref_entry(s9 * a3, s10 * a4)
        out[f"ratio:{case}:chain:a"] = _ref_entry(s7 * s8, -s6 * s9)
        out[f"ratio:{case}:chain:b"] = _ref_entry(s9 * s9, -s8 * s10)
    elif case == conformal.CASE_N:
        for row, name in enumerate(SCALAR_NAMES):
            a2, a4 = vd[row, 1], vd[row, 3]
            out[f"ratio:{case}:{name}:a"] = _ref_entry(s5 * a2, -s7 * a4)
            out[f"ratio:{case}:{name}:b"] = _ref_entry(s6 * a2, -s9 * a4)
            out[f"ratio:{case}:{name}:c"] = _ref_entry(s7 * a2, -s10 * a4)
        out[f"ratio:{case}:chain:a"] = _ref_entry(s7 * s6, -s9 * s5)
        out[f"ratio:{case}:chain:b"] = _ref_entry(s9 * s7, -s10 * s6)
    elif case == conformal.CASE_P:
        for row, name in enumerate(SCALAR_NAMES):
            a2, a3 = vd[row, 1], vd[row, 2]
            out[f"ratio:{case}:{name}:a"] = _ref_entry(s5 * a2, -s6 * a3)
            out[f"ratio:{case}:{name}:b"] = _ref_entry(s6 * a2, -s8 * a3)
            out[f"ratio:{case}:{name}:c"] = _ref_entry(s7 * a2, -s9 * a3)
        out[f"ratio:{case}:chain:a"] = _ref_entry(s6 * s6, -s5 * s8)
        out[f"ratio:{case}:chain:b"] = _ref_entry(s8 * s7, -s6 * s9)
    return out


def _ref_laws(base, lifted, sc):
    es = math.exp(sc.sigma_value)
    bh, bj, bk, bu, bv, bw = base.vectors
    lh, lj, lk = lifted.vectors[:3]
    s2, s3, s4 = sc.components[1:4]
    out = {
        "hbar1_law": abs(
            lh[0] - (bh[0] + s2 * bu[1] + s3 * bu[2] + s4 * bu[3]) / es
        ),
        "jbar1_law": abs(
            lj[0] - (bj[0] + s2 * bv[1] + s3 * bv[2] + s4 * bv[3]) / es
        ),
        "kbar1_law": abs(
            lk[0] - (bk[0] + s2 * bw[1] + s3 * bw[2] + s4 * bw[3]) / es
        ),
    }
    if np.max(np.abs(base.pe.dx_g)) < 1e-9:
        vd = base.v_derivs
        for row, name in enumerate(SCALAR_NAMES):
            predicted = (s2 * vd[row, 1] + s3 * vd[row, 2] + s4 * vd[row, 3]) / es
            out[f"scalar_hderiv_l_law:{name}"] = abs(
                lifted.h_derivs[row, 0] - predicted
            )
    return out


def test_condition_systems_equal_the_written_out_formulas_in_every_case():
    # sigma's gradient is aimed along each subset of the four frame covectors
    # (a constant for the empty subset), which reaches all nine cases at a
    # flat base point and at a Randers drift point
    drift = make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]})
    seen = set()
    for spec, x, y in ((QUARTIC, X1, YGEN), (drift, np.array([0.1, 0.2, 0.3, 0.4]), YGEN)):
        flat = scalar_profile(geometry.point_eval(spec, x, y)).e_flat
        for size in range(5):
            for subset in itertools.combinations(range(4), size):
                pair = gradient_pair(spec, sum(flat[i] for i in subset)) if subset \
                    else make_conformal(spec, "0.3")
                base, lifted = profiles(pair, x, y)
                sc = sigma_components(base, lifted)
                case, _, lands = landsberg_case_conditions(base, sc)
                berw_case, _, berw = berwald_case_conditions(base, sc)
                assert case == berw_case == _ref_case(sc), subset
                seen.add(case)
                for got, want in ((lands, _ref_landsberg(base, sc)),
                                  (berw, _ref_berwald(base, sc))):
                    assert list(got) == list(want), (case, subset)
                    for label, entry in want.items():
                        assert got[label] == entry, (case, label)
                inv = invariance_check(base, lifted, sc)
                want = _ref_laws(base, lifted, sc)
                laws = {k: v for k, v in inv.items()
                        if k.endswith("bar1_law") or k.startswith("scalar_hderiv_l_law:")}
                assert list(laws) == list(want), subset
                for key, value in want.items():
                    assert laws[key] == value, (case, key)
    assert seen == set(_REF_CASES.values()) | {CASE_HOMOTHETIC, conformal.CASE_SUPPORTING_ONLY}


def test_an_unreliable_extraction_becomes_an_eval_error_record(monkeypatch):
    # with a negative tolerance every extraction is refused: each point is
    # an eval_error record, its residuals printed as plain floats, and no
    # point is counted
    monkeypatch.setattr(conformal, "EXTRACTION_TOL", -1.0)
    base = make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]})
    audit = audit_pair(make_conformal(base, "0.1*x1"), SamplePlan(2, 1))
    errors = [rep.eval_error for rep in audit.reports]
    assert len(errors) == 2
    for err in errors:
        assert err.startswith("spray-difference extraction residuals above tolerance: {'sym_mn': ")
        assert "np.float64" not in err
    for summary in (audit.landsberg_summary, audit.berwald_summary):
        assert set(summary.values()) == {0}


def _report_bits(value):
    """A report, or any part of it, with every array and float as its exact
    bits, so that two reports compare equal only bit for bit."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                [(f.name, _report_bits(getattr(value, f.name))) for f in dataclasses.fields(value)])
    if isinstance(value, dict):
        return [(k, _report_bits(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_report_bits(v) for v in value]
    if isinstance(value, (np.ndarray, np.floating)):
        value = np.asarray(value)
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return float.hex(value)
    return value


@pytest.mark.parametrize("doc,failures", [
    ({"family": "randers", "params": {"b": ["0.1*x2", 0, 0, 0]}, "sigma": "0.1*x1"}, 0),
    ({"family": "quartic_minkowski", "sigma": "0.2*x1+0.1*sin(x2)"}, 0),
    # sigma fails where x1 <= -0.5: those points get an eval_error record
    ({"family": "quartic_minkowski", "sigma": "log(x1+0.5)"}, 2),
])
def test_a_sample_audit_gives_each_point_its_lone_report(doc, failures):
    # the conformal pairs the benchmark audits: sixteen points in one stack
    # report each point bit for bit as alone
    spec, _ = metrics.spec_from_json_dict(doc)
    plan = SamplePlan(16, 7)
    audit = audit_pair(spec, plan)
    points = sample_domain(spec.domain, plan)
    assert len(audit.reports) == len(points) == 16
    assert sum(rep.eval_error is not None for rep in audit.reports) == failures
    for rep, point in zip(audit.reports, points):
        assert rep.frame_error is None
        lone = evaluate_points(spec, [point])[0]
        assert _report_bits(rep) == _report_bits(lone)
        if rep.eval_error is None:
            base, lifted = profiles(spec, *point)
            assert _report_bits(evaluate_point(base, lifted)) == _report_bits(rep)


def test_a_point_that_is_not_four_numbers_gets_its_own_eval_error():
    # a short, a long and a ragged x, and a long y: each of those points is
    # refused alone, and the others keep their lone reports
    spec, _ = metrics.spec_from_json_dict(
        {"family": "quartic_minkowski", "sigma": "0.2*x1+0.1*sin(x2)"})
    points = sample_domain(spec.domain, SamplePlan(6, 3))
    (x0, y0), (x1, _), (x2, _), (x3, _) = points[:4]
    points[0] = (x0, [*y0, 1.0])
    points[1] = (x1[:3], points[1][1])
    points[2] = ([*x2, 0.0], points[2][1])
    points[3] = ([x3[:2], x3[2:3]], points[3][1])
    reports = evaluate_points(spec, points)
    assert [rep.eval_error for rep in reports[:4]] == [
        f"{name} must be four numbers, got {value!r}"
        for name, value in (("y", points[0][1]), ("x", points[1][0]), ("x", points[2][0]),
                            ("x", points[3][0]))
    ]
    for rep, point in zip(reports[4:], points[4:]):
        assert rep.eval_error is None
        assert _report_bits(rep) == _report_bits(evaluate_points(spec, [point])[0])

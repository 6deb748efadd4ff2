import dataclasses
import itertools
import math

import numpy as np
import pytest

from finsler4 import conformal, geometry, jets, metrics
from finsler4.classify import classify_metric
from finsler4.conformal import (
    CASE_ALL,
    CASE_HOMOTHETIC,
    CASE_M,
    CASE_N_P,
    ExtractionUnreliable,
    audit_pair,
    berwald_case_conditions,
    case_of,
    evaluate_point,
    evaluate_points,
    invariance_check,
    landsberg_case_conditions,
    make_pair,
    sigma_components,
)
from finsler4.frame import SCALAR_NAMES, scalar_profile
from finsler4.metrics import SamplePlan, make_builtin_metric, sample_domain

QUARTIC = make_builtin_metric("quartic_minkowski")
X1 = np.array([0.5, -0.3, 0.2, 0.1])
YGEN = np.array([1.1, 2.0, 0.9, 1.3])


def profiles(pair, x, y):
    """Frame profiles of the base and the rescaled space at one point."""
    return tuple(
        scalar_profile(geometry.point_eval(spec, x, y)) for spec in (pair.base, pair.lifted)
    )


def sigma_at(pair, x, y):
    return sigma_components(pair, *profiles(pair, x, y))


def invariance_at(pair, x, y):
    base, lifted = profiles(pair, x, y)
    return invariance_check(base, lifted, sigma_components(pair, base, lifted))


def gradient_pair(spec, cov):
    """spec rescaled by the linear factor whose gradient is the covector cov."""
    src = "+".join(f"({format(float(c), '.17g')})*x{i+1}" for i, c in enumerate(cov))
    return make_pair(spec, src)


def test_lift_rejects_direction_dependent_factor():
    with pytest.raises(metrics.SigmaUsesY):
        make_pair(QUARTIC, "0.1*y1")


def test_zero_factor_is_identity():
    pair = make_pair(QUARTIC, "0")
    rep = invariance_at(pair, X1, YGEN)
    finite = {k: v for k, v in rep.items() if not math.isnan(v)}
    assert max(finite.values()) < 1e-10


def test_constant_factor_scales_metric():
    pair = make_pair(QUARTIC, "0.3")
    base = geometry.point_eval(pair.base, X1, YGEN)
    lifted = geometry.point_eval(pair.lifted, X1, YGEN)
    assert np.max(np.abs(lifted.metric.g - math.exp(0.6) * base.metric.g)) <= 1e-10


def test_homothety_zero_components():
    pair = make_pair(QUARTIC, "0.3")
    sc = sigma_at(pair, X1, YGEN)
    assert max(abs(v) for v in (sc.sigma1, sc.sigma2, sc.sigma3, sc.sigma4)) <= 1e-10
    assert np.max(np.abs(sc.spray_block())) <= 1e-10
    assert case_of(sc)[0] == CASE_HOMOTHETIC


def test_sigma_gradient_reconstruction():
    pair = make_pair(QUARTIC, "0.1*x1+0.05*x2^2")
    base, lifted = profiles(pair, X1, YGEN)
    sc = sigma_components(pair, base, lifted)
    bundle = base.frame
    recon = sc.frame_grad() @ bundle.e_flat
    assert np.max(np.abs(recon - sc.sigma_grad)) <= 1e-9


def test_extraction_residuals_small_and_layout_holds():
    pair = make_pair(QUARTIC, "0.1*x1+0.05*x2^2")
    sc = sigma_at(pair, X1, YGEN)
    for key, val in sc.extraction_residuals.items():
        assert val <= 1e-7 * sc.extraction_scale, (key, val)


def test_spray_difference_transvection_identity():
    pair = make_pair(QUARTIC, "0.1*x1+0.05*x2^2")
    for x, y in sample_domain(QUARTIC.domain, SamplePlan(count=6, seed=71)):
        sc = sigma_at(pair, x, y)
        assert sc.extraction_residuals["spray_transvection"] <= 1e-7


def test_case_dispatch_constructed_gradients():
    # aim the gradient along chosen frame covectors at the evaluation point
    prof = scalar_profile(geometry.point_eval(QUARTIC, X1, YGEN))
    flat = prof.frame.e_flat

    sc = sigma_at(gradient_pair(QUARTIC, flat[2] + flat[3]), X1, YGEN)
    case, _ = case_of(sc)
    assert case == CASE_N_P
    assert abs(sc.sigma2) < 1e-9
    assert sc.sigma3 == pytest.approx(1.0, rel=1e-9)
    assert sc.sigma4 == pytest.approx(1.0, rel=1e-9)

    sc = sigma_at(gradient_pair(QUARTIC, flat[1]), X1, YGEN)
    assert case_of(sc)[0] == CASE_M

    sc = sigma_at(gradient_pair(QUARTIC, flat[1] + flat[2] + flat[3]), X1, YGEN)
    assert case_of(sc)[0] == CASE_ALL


def test_landsberg_conditions_homothetic_all_zero():
    pair = make_pair(QUARTIC, "0.25")
    prof, lifted = profiles(pair, X1, YGEN)
    sc = sigma_components(pair, prof, lifted)
    case, near, out = landsberg_case_conditions(prof.profile, sc)
    assert case == CASE_HOMOTHETIC
    assert not near
    assert max(v["residual"] for v in out.values()) <= 1e-10


def test_landsberg_conditions_fail_with_nonlandsberg_lift():
    pair = make_pair(QUARTIC, "0.1*x1")
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
    pair = make_pair(QUARTIC, "0.25")
    prof, lifted = profiles(pair, X1, YGEN)
    sc = sigma_components(pair, prof, lifted)
    _, _, out = berwald_case_conditions(prof.profile, sc)
    assert max(v["residual"] for v in out.values()) <= 1e-10


def test_berwald_conditions_reject_bad_extraction():
    pair = make_pair(QUARTIC, "0.1*x1")
    prof, lifted = profiles(pair, X1, YGEN)
    sc = sigma_components(pair, prof, lifted)
    corrupted = conformal.SigmaComponents(
        sigma1=sc.sigma1, sigma2=sc.sigma2, sigma3=sc.sigma3, sigma4=sc.sigma4,
        sigma5=sc.sigma5, sigma6=sc.sigma6, sigma7=sc.sigma7, sigma8=sc.sigma8,
        sigma9=sc.sigma9, sigma10=sc.sigma10, sigma_value=sc.sigma_value,
        sigma_grad=sc.sigma_grad,
        extraction_residuals={"sym_mn": 1.0}, extraction_scale=1.0,
    )
    with pytest.raises(ExtractionUnreliable):
        berwald_case_conditions(prof.profile, corrupted)


def test_invariance_suite_nonhomothetic():
    pair = make_pair(QUARTIC, "0.1*x1+0.05*x2^2")
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
    pair = make_pair(base, "0.1*x1")
    for x, y in sample_domain(base.domain, SamplePlan(count=6, seed=83)):
        out = invariance_at(pair, x, y)
        for key in ("hbar1_law", "jbar1_law", "kbar1_law"):
            assert out[key] <= 1e-6, (key, out[key])
        # the scalar law needs a position-independent base, so it is gated off
        assert not any(k.startswith("scalar_hderiv_l_law") for k in out)


def test_audit_cooccurrence_homothetic_and_generic():
    plan = SamplePlan(count=8, seed=89)
    hom = audit_pair(make_pair(QUARTIC, "0.4"), plan)
    assert hom.landsberg_summary["disagree"] == 0
    assert hom.berwald_summary["disagree"] == 0
    assert hom.landsberg_summary["agree"] > 0

    gen = audit_pair(make_pair(QUARTIC, "0.1*x1"), plan)
    assert gen.landsberg_summary["disagree"] == 0
    assert gen.berwald_summary["disagree"] == 0
    assert gen.landsberg_summary["agree"] > 0
    assert gen.berwald_summary["agree"] > 0


def test_case_dispatch_flags_near_threshold_components():
    prof = scalar_profile(geometry.point_eval(QUARTIC, X1, YGEN))
    flat = prof.frame.e_flat

    # an m-component hovering just above the dispatch threshold is flagged
    sc = sigma_at(gradient_pair(QUARTIC, 1.5e-8 * flat[1] + 1.0 * flat[2]), X1, YGEN)
    case, near = case_of(sc)
    assert near
    # gradient along the supporting covector alone: anomalous pattern
    sc = sigma_at(gradient_pair(QUARTIC, flat[0]), X1, YGEN)
    case, near = case_of(sc)
    assert case == conformal.CASE_SUPPORTING_ONLY


def test_every_point_gets_exactly_one_case():
    pair = make_pair(QUARTIC, "0.1*x1+0.05*x2^2")
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
    cases = [(make_pair(QUARTIC, "0.1*x1+0.05*x2^2"), X1, YGEN)]
    cases += [(make_pair(drift, "0.1*x1"), x, y)
              for x, y in sample_domain(drift.domain, SamplePlan(count=3, seed=97))]
    for pair, x, y in cases:
        rep = evaluate_points(pair, [(x, y)])[0]
        base, lifted = profiles(pair, x, y)
        sc = sigma_components(pair, base, lifted)
        for f in dataclasses.fields(sc):
            got, want = getattr(sc, f.name), getattr(rep.sigma, f.name)
            if isinstance(got, np.ndarray):
                assert np.array_equal(got, want), f.name
            else:
                assert got == want, f.name
        assert invariance_check(base, lifted, sc) == rep.invariance_residuals
        assert evaluate_point(pair, base, lifted).invariance_residuals == rep.invariance_residuals


def test_evaluate_point_builds_one_point_eval_per_space(monkeypatch):
    # base and rescaled space once each; the profiles, sigma_components and
    # invariance_check all read them
    calls = []
    init = geometry.PointEval.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(geometry.PointEval, "__init__", counting_init)
    evaluate_points(make_pair(QUARTIC, "0.1*x1"), [(X1, YGEN)])
    assert len(calls) == 2


# the two conformal pairs of the benchmark's conformal-audit workload
_BENCH_PAIRS = (
    make_pair(make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]}), "0.1*x1"),
    make_pair(QUARTIC, "0.2*x1+0.1*sin(x2)"),
)


@pytest.mark.parametrize("pair", _BENCH_PAIRS)
def test_lifted_jets_built_from_the_base_jet_match_a_fresh_evaluation(pair):
    for x, y in sample_domain(pair.base.domain, SamplePlan(count=4, seed=29)):
        base = geometry.point_eval(pair.base, x, y)
        lifted = geometry.point_eval(pair.lifted, x, y, base)
        fresh = geometry.point_eval(pair.lifted, x, y)
        assert lifted.L_jet.c.tobytes() == fresh.L_jet.c.tobytes()
        assert lifted.L2_jet.c.tobytes() == fresh.L2_jet.c.tobytes()


def test_lifted_point_eval_needs_the_base_at_the_same_point():
    pair = _BENCH_PAIRS[1]
    base = geometry.point_eval(pair.base, X1, YGEN)
    with pytest.raises(jets.InvalidArgument):
        geometry.point_eval(pair.lifted, X1, 2 * YGEN, base)
    with pytest.raises(jets.InvalidArgument):
        geometry.point_eval(pair.base, X1, YGEN, base)
    with pytest.raises(jets.InvalidArgument):
        metrics.eval_L(pair.base, X1, YGEN, geometry.MASTER_CAPS, base.L_jet)


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


def test_overflowing_factor_keeps_its_eval_error_records():
    # exp(exp(1000*x1)) overflows for x1 > 0.0066: the audit records exactly
    # the points and messages that evaluating the rescaled space alone gives
    pair = make_pair(QUARTIC, "exp(1000*x1)")
    plan = SamplePlan(count=8, seed=1)
    errors = [rep.eval_error for rep in audit_pair(pair, plan).reports]
    assert [e for e in errors if e is not None] == ["the jet of L is not finite here"] * 4
    assert [rec.eval_error for rec in classify_metric(pair.lifted, plan).points] == errors


def test_direct_barred_measurement_equals_classify_of_the_lifted_space():
    # one h-derivative measurement: the audit reports for the rescaled space
    # exactly what classify records for it, scale grouping included
    pair = make_pair(make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]}), "0.1*x1")
    plan = SamplePlan(count=8, seed=3)
    records = classify_metric(pair.lifted, plan).points
    points = sample_domain(pair.lifted.domain, plan)
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
    pattern = tuple(abs(c) >= conformal.TAU_SIGMA for c in (sc.sigma2, sc.sigma3, sc.sigma4))
    if any(pattern):
        return _REF_CASES[pattern]
    if abs(sc.sigma1) < conformal.TAU_SIGMA:
        return CASE_HOMOTHETIC
    return conformal.CASE_SUPPORTING_ONLY


def _ref_landsberg(profile, sc):
    case = _ref_case(sc)
    s2, s3, s4 = sc.sigma2, sc.sigma3, sc.sigma4
    vd, vec = profile.v_derivs, profile.vectors
    out = {}
    for row, name in enumerate(SCALAR_NAMES):
        out[f"landsberg:scalar:{name}"] = _ref_entry(
            s2 * vd[row, 1], s3 * vd[row, 2], s4 * vd[row, 3]
        )
    out["landsberg:h1"] = _ref_entry(vec.h[0], s2 * vec.u[1], s3 * vec.u[2], s4 * vec.u[3])
    out["landsberg:j1"] = _ref_entry(vec.j[0], s2 * vec.v[1], s3 * vec.v[2], s4 * vec.v[3])
    out["landsberg:k1"] = _ref_entry(vec.k[0], s2 * vec.w[1], s3 * vec.w[2], s4 * vec.w[3])
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
    s5, s6, s7 = sc.sigma5, sc.sigma6, sc.sigma7
    s8, s9, s10 = sc.sigma8, sc.sigma9, sc.sigma10
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
    bvec, lvec = base.profile.vectors, lifted.profile.vectors
    s2, s3, s4 = sc.sigma2, sc.sigma3, sc.sigma4
    out = {
        "hbar1_law": abs(
            lvec.h[0] - (bvec.h[0] + s2 * bvec.u[1] + s3 * bvec.u[2] + s4 * bvec.u[3]) / es
        ),
        "jbar1_law": abs(
            lvec.j[0] - (bvec.j[0] + s2 * bvec.v[1] + s3 * bvec.v[2] + s4 * bvec.v[3]) / es
        ),
        "kbar1_law": abs(
            lvec.k[0] - (bvec.k[0] + s2 * bvec.w[1] + s3 * bvec.w[2] + s4 * bvec.w[3]) / es
        ),
    }
    if np.max(np.abs(base.pe.dx_g)) < 1e-9:
        vd = base.profile.v_derivs
        for row, name in enumerate(SCALAR_NAMES):
            predicted = (s2 * vd[row, 1] + s3 * vd[row, 2] + s4 * vd[row, 3]) / es
            out[f"scalar_hderiv_l_law:{name}"] = abs(
                lifted.profile.h_derivs[row, 0] - predicted
            )
    return out


def test_condition_systems_equal_the_written_out_formulas_in_every_case():
    # sigma's gradient is aimed along each subset of the four frame covectors
    # (a constant for the empty subset), which reaches all nine cases at a
    # flat base point and at a Randers drift point
    drift = make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]})
    seen = set()
    for spec, x, y in ((QUARTIC, X1, YGEN), (drift, np.array([0.1, 0.2, 0.3, 0.4]), YGEN)):
        flat = scalar_profile(geometry.point_eval(spec, x, y)).frame.e_flat
        for size in range(5):
            for subset in itertools.combinations(range(4), size):
                pair = gradient_pair(spec, sum(flat[i] for i in subset)) if subset \
                    else make_pair(spec, "0.3")
                base, lifted = profiles(pair, x, y)
                sc = sigma_components(pair, base, lifted)
                case, _, lands = landsberg_case_conditions(base.profile, sc)
                berw_case, _, berw = berwald_case_conditions(base.profile, sc)
                assert case == berw_case == _ref_case(sc), subset
                seen.add(case)
                for got, want in ((lands, _ref_landsberg(base.profile, sc)),
                                  (berw, _ref_berwald(base.profile, sc))):
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
    audit = audit_pair(make_pair(base, "0.1*x1"), SamplePlan(2, 1))
    errors = [rep.eval_error for rep in audit.reports]
    assert len(errors) == 2
    for err in errors:
        assert err.startswith("spray-difference extraction residuals above tolerance: {'sym_mn': ")
        assert "np.float64" not in err
    for summary in (audit.landsberg_summary, audit.berwald_summary):
        assert set(summary.values()) == {0}

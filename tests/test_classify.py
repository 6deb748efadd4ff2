import math

import numpy as np

from finsler4.classify import agreement, all3, band, classify_metric
from finsler4.metrics import SamplePlan, make_builtin_metric, make_conformal

PLAN = SamplePlan(count=8, seed=101)


def test_quartic_truth_vector():
    report = classify_metric(make_builtin_metric("quartic_minkowski"), PLAN)
    assert report.verdicts == {
        "riemannian": "no",
        "locally_minkowski_in_chart": "yes",
        "berwald": "yes",
        "landsberg": "yes",
    }


def test_berwald_moor_truth_vector_frame_unavailable():
    report = classify_metric(make_builtin_metric("berwald_moor"), PLAN)
    assert report.verdicts["berwald"] == "yes"
    assert report.verdicts["landsberg"] == "yes"
    assert report.verdicts["riemannian"] == "no"
    assert all(r.frame_error == "NotPositiveDefinite" for r in report.points)
    assert report.route_agreement["frame_valid_points"] == 0


def test_randers_nonconstant_truth_vector():
    spec = make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]})
    report = classify_metric(spec, PLAN)
    assert report.verdicts["berwald"] == "no"
    assert report.verdicts["landsberg"] == "no"
    assert report.verdicts["locally_minkowski_in_chart"] == "no"


def test_randers_constant_truth_vector():
    spec = make_builtin_metric("randers", {"b": [0.2, 0.1, 0, 0]})
    report = classify_metric(spec, PLAN)
    assert report.verdicts == {
        "riemannian": "no",
        "locally_minkowski_in_chart": "yes",
        "berwald": "yes",
        "landsberg": "yes",
    }


def test_riemannian_verdict():
    spec = make_builtin_metric(
        "riemannian",
        {"g0": [["1+0.1*sin(x1)", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
    )
    report = classify_metric(spec, PLAN)
    assert report.verdicts["riemannian"] == "yes"
    assert report.verdicts["berwald"] == "yes"
    assert report.verdicts["landsberg"] == "yes"
    assert all(r.frame_error == "VanishingTorsion" for r in report.points)
    assert report.route_agreement["frame_valid_points"] == 0


def test_conformal_lift_classified_not_flat():
    base = make_builtin_metric("quartic_minkowski")
    spec = make_conformal(base, "0.1*x1")
    report = classify_metric(spec, PLAN)
    assert report.verdicts["berwald"] == "no"
    assert report.verdicts["landsberg"] == "no"
    assert report.verdicts["locally_minkowski_in_chart"] == "no"


def test_route_agreement_across_corpus():
    corpus = [
        make_builtin_metric("quartic_minkowski"),
        make_builtin_metric("randers", {"b": [0.2, 0.1, 0, 0]}),
        make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]}),
        make_conformal(make_builtin_metric("quartic_minkowski"), "0.1*x1"),
    ]
    for spec in corpus:
        report = classify_metric(spec, PLAN)
        summary = report.route_agreement["summary"]
        assert summary["landsberg_disagree"] == 0
        assert summary["berwald_disagree"] == 0
        assert report.route_agreement["frame_valid_points"] > 0


def test_berwald_implies_landsberg_monotonicity_and_bound():
    corpus = [
        make_builtin_metric("quartic_minkowski"),
        make_builtin_metric("berwald_moor"),
        make_builtin_metric("randers", {"b": [0.2, 0.1, 0, 0]}),
        make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]}),
        make_conformal(make_builtin_metric("quartic_minkowski"), "0.1*x1"),
    ]
    for spec in corpus:
        report = classify_metric(spec, PLAN)
        if report.verdicts["berwald"] == "yes":
            assert report.verdicts["landsberg"] == "yes"
        for rec in report.points:
            if rec.eval_error:
                continue
            bound = 4.0 * np.linalg.norm(rec.y) * rec.max_cartan_hderiv + 1e-9
            assert rec.max_cartan_hderiv_transvected <= bound


def test_spray_cubic_route_matches_hderiv_route():
    corpus = [
        ("quartic_minkowski", None),
        ("randers", {"b": [0.2, 0.1, 0, 0]}),
        ("randers", {"b": ["0.1*x2", 0, 0, 0]}),
    ]
    for family, params in corpus:
        spec = make_builtin_metric(family, params)
        report = classify_metric(spec, PLAN)
        for rec in report.points:
            cubic_zero = rec.max_spray_cubic <= 1e-6 * rec.hderiv_scale
            hderiv_zero = rec.max_cartan_hderiv <= 1e-6 * rec.hderiv_scale
            assert cubic_zero == hderiv_zero


def test_point_outside_randers_domain_becomes_eval_error_record():
    spec = make_builtin_metric("randers", {"b": ["1.1*sin(3*x1)", 0, 0, 0]})
    report = classify_metric(spec, SamplePlan(count=16, seed=1))
    assert len(report.points) == 16
    outside = [abs(1.1 * np.sin(3 * r.x[0])) >= 1 for r in report.points]
    assert any(outside) and not all(outside)
    for r, out in zip(report.points, outside):
        if out:
            assert "|b(x)| >= 1" in r.eval_error
            assert r.frame is None and np.isnan(r.max_cartan)
        else:
            assert r.eval_error is None
    assert report.verdicts["berwald"] == "no"


def test_judge_truth_table():
    small, large, scale = 1e-6, 1e-5, 3.0
    assert band(small * scale, scale, small, large) is True
    assert band(large * scale, scale, small, large) is None
    assert band(2 * large * scale, scale, small, large) is False
    assert band(math.nan, scale, small, large) is None
    assert all3([]) is None
    assert all3([True, True]) is True
    assert all3([True, None]) is None
    assert all3([None, False, True]) is False
    assert all3(iter([None, False])) is False
    assert agreement(True, True) == agreement(False, False) == "agree"
    assert agreement(True, False) == agreement(False, True) == "disagree"
    for a in (True, False, None):
        assert agreement(a, None) == agreement(None, a) == "inconclusive"

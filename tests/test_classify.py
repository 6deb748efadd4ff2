import dataclasses
import json
import math

import numpy as np
import pytest

from finsler4 import classify, conformal, frame, geometry
from finsler4.classify import agreement, all3, band, classify_metric, judge
from finsler4.geometry import SingularMetric, point_eval
from finsler4.jets import Finsler4Error, SpecError
from finsler4.metrics import SamplePlan, make_builtin_metric, make_conformal, sample_domain

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


def test_a_vanishing_h_derivative_promotes_an_undetermined_landsberg():
    # at this point the transvected h-derivative is the larger one, so a tol
    # just above the full one's ratio leaves Landsberg in the band
    spec = make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]})
    plan = SamplePlan(1, 10)
    point = classify_metric(spec, plan).points[0]
    ratio = point.max_cartan_hderiv / point.hderiv_scale
    assert point.max_cartan_hderiv_transvected / point.hderiv_scale > 1.01 * ratio
    above = classify_metric(spec, plan, 1.01 * ratio)
    assert above.verdicts["berwald"] == above.verdicts["landsberg"] == "yes"
    assert above.notes == ["landsberg promoted to yes: transvection of a vanishing h-derivative"]
    below = classify_metric(spec, plan, 0.99 * ratio)
    assert below.verdicts["berwald"] == below.verdicts["landsberg"] == "undetermined"
    assert below.notes == []


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


def test_band_of_a_float_equals_band_of_a_one_element_array():
    # floats are compared with Python operators, arrays with NumPy reductions
    small, large, scale = 1e-6, 1e-5, 3.0
    edges = [small * scale, large * scale]
    values = [math.nan, math.inf, -math.inf, 0.0, -0.0,
              *edges, *(np.nextafter(e, side) for e in edges for side in (-math.inf, math.inf))]
    seen = set()
    for v in values:
        for s in (scale, np.float64(scale)):
            want = band(np.array([v]), s, small, large)
            assert band(float(v), s, small, large) is want, (v, s)
            assert band(np.float64(v), s, small, large) is want, (v, s)
            seen.add(want)
    assert seen == {True, None, False}


def _judged(question, value, reference):
    """Values in which the question's quantity is ``value`` (a tuple
    quantity holds it negated in its last key) and its reference
    ``reference``."""
    row = classify.JUDGES[question]
    if isinstance(row.quantity, str):
        return {row.quantity: value, row.reference: reference}
    return {**dict.fromkeys(row.quantity, 0.0), row.quantity[-1]: [0.0, -value],
            row.reference: reference}


@pytest.mark.parametrize("question", list(classify.JUDGES))
@pytest.mark.parametrize("tol", [1e-6, 1e-3])
def test_judge_edges(question, tol):
    row = classify.JUDGES[question]
    ref = 3.0
    unit = tol if row.of_tol else 1.0
    small = row.small * unit * ref
    large = row.large * unit * ref
    assert judge(question, _judged(question, small, ref), tol) is True
    assert judge(question, _judged(question, math.sqrt(small * large), ref), tol) is None
    assert judge(question, _judged(question, large, ref), tol) is None
    assert judge(question, _judged(question, np.nextafter(large, math.inf), ref), tol) is False
    assert judge(question, _judged(question, math.nan, ref), tol) is None


@pytest.mark.parametrize("question", list(classify.JUDGES))
def test_judge_edges_move_with_tol_unless_fixed(question):
    row = classify.JUDGES[question]
    # between the edges at tol = 1e-6, below the small edge at tol = 1e-3
    values = _judged(question, 2 * row.small * 1e-6, 1.0)
    at_fine, at_coarse = judge(question, values, 1e-6), judge(question, values, 1e-3)
    if row.of_tol:
        assert (at_fine, at_coarse) == (None, True)
    else:
        assert at_fine is at_coarse is True


def _lone_record(spec, index, x, y):
    """The record of one point evaluated alone, outside any stack."""
    try:
        pe = point_eval(spec, x, y)
        try:
            prof = frame.scalar_profile(pe)
        except frame.FrameError as err:
            prof = err
        return classify._evaluate_record(index, pe, prof)
    except Finsler4Error as err:
        return classify.PointRecord(index=index, x=np.asarray(x), y=np.asarray(y),
                                    eval_error=str(err))


def _as_json(record):
    return json.dumps(dataclasses.asdict(record), default=lambda a: a.tolist())


def test_stacked_sample_gives_the_records_of_lone_points():
    # (x1+2)^2000 overflows at 7 of these 8 points, which become eval_error
    # records before the stack; the last is a stack of one
    overflow = make_builtin_metric(
        "expression", {"L": "(x1+2)^2000*(y1^2+y2^2+y3^2+y4^2)^0.5"}
    )
    randers = make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]})
    for spec, failures in ((overflow, 7), (randers, 0), (make_builtin_metric("berwald_moor"), 0)):
        plan = SamplePlan(count=8, seed=1)
        records = classify_metric(spec, plan).points
        assert sum(r.eval_error is not None for r in records) == failures
        want = [_lone_record(spec, i, x, y)
                for i, (x, y) in enumerate(sample_domain(spec.domain, plan))]
        assert [_as_json(r) for r in records] == [_as_json(r) for r in want]


def test_a_zero_exponent_factor_changes_no_record():
    # y1^0 is the constant jet 1, so multiplying L by it moves no bit
    L = "sqrt(y1^2+2*y2^2+y3^2+y4^2)+0.1*x2*y1"
    plan = SamplePlan(8, 5)
    plain, times_one = (classify_metric(make_builtin_metric("expression", {"L": doc}), plan)
                        for doc in (L, f"({L})*y1^0"))
    assert [_as_json(r) for r in times_one.points] == [_as_json(r) for r in plain.points]
    assert times_one.verdicts == plain.verdicts


def test_refused_members_leave_the_others_in_one_stack(monkeypatch):
    # 10 of the 15 evaluated points are NotPositiveDefinite; the other five
    # take the same seeds, so the one profile call builds their frames as one stack
    spec = make_builtin_metric("expression", {"L": "sqrt(y1^2+y2^2+y3^2+x1*y4^2)+0.1*x2*y1"})
    plan = SamplePlan(16, 3)
    calls = []

    def counted(name, fn):
        def wrapper(st):
            calls.append((name, len(st.members)))
            return fn(st)
        return wrapper

    monkeypatch.setattr(frame, "scalar_profile", counted("profile", frame.scalar_profile))
    monkeypatch.setattr(frame, "_field_jets", counted("field_jets", frame._field_jets))
    records = classify_metric(spec, plan).points
    assert calls == [("profile", 15), ("field_jets", 5)]
    assert [r.frame_error for r in records].count("NotPositiveDefinite") == 10
    want = [_lone_record(spec, i, x, y)
            for i, (x, y) in enumerate(sample_domain(spec.domain, plan))]
    assert [_as_json(r) for r in records] == [_as_json(r) for r in want]


@pytest.mark.parametrize("seed", range(6))
def test_judging_a_row_array_is_the_and_of_its_rows(seed):
    rng = np.random.default_rng(seed)
    tol = 1e-6
    for size in (0, 1, 3, 12):
        scale = rng.uniform(0.5, 2.0, size)
        # vanishing, in-band and clearly non-vanishing rows, and NaN
        residual = scale * tol * rng.choice([0.5, 1.0, 30.0, 100.0, 150.0], size)
        if size and rng.random() < 0.3:
            residual[rng.integers(size)] = math.nan
        for rows in (residual, np.minimum(residual, scale * tol)):
            flags = [judge("condition_row", {"residual": r, "scale": s}, tol)
                     for r, s in zip(rows.tolist(), scale.tolist())]
            assert judge("condition_row", {"residual": rows, "scale": scale}, tol) is all3(flags)


def test_a_condition_block_of_zero_terms_vanishes():
    # rows whose terms are all zero have residual 0 and scale 0, and 0 <= small * 0
    rows = conformal._condition_rows([(("a", "b"), np.zeros((2, 3)))])
    assert rows["labels"] == ("a", "b")
    assert rows["residual"].tolist() == rows["scale"].tolist() == [0.0, 0.0]
    for tol in (1e-6, 1e-3):
        assert judge("condition_row", rows, tol) is True


def test_a_stage_failure_reruns_the_stack_member_by_member():
    # the quartic metric is singular where a direction component vanishes:
    # that member fails the stack's metric, and each member then runs alone
    quartic = make_builtin_metric("quartic_minkowski")
    randers = make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]})
    x = np.array([0.3, -0.2, 0.1, 0.5])
    members = ((quartic, np.array([1.1, 2.0, 0.9, 1.3])),
               (quartic, np.array([1.0, 2.0, 0.0, 1.0])),
               (randers, np.array([1.0, 2.0, 1.0, 1.0])))
    with pytest.raises(SingularMetric):
        geometry.PointEval.stack([point_eval(s, x, y) for s, y in members]).metric
    outcomes = classify.evaluate_stack([point_eval(s, x, y) for s, y in members])
    assert [type(o).__name__ for o in outcomes] == ["ProfileResult", "SingularMetric",
                                                   "ProfileResult"]
    for (spec, y), got in zip(members, outcomes):
        if isinstance(got, SingularMetric):
            with pytest.raises(SingularMetric) as lone:
                point_eval(spec, x, y).metric
            assert str(lone.value) == str(got)
            continue
        want = frame.scalar_profile(point_eval(spec, x, y))
        assert np.array_equal(got.e, want.e)
        assert np.array_equal(got.h_derivs, want.h_derivs)
        assert got.residuals == want.residuals


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_tolerance_must_be_a_finite_positive_number(tol):
    spec = make_builtin_metric("quartic_minkowski")
    with pytest.raises(SpecError):
        classify_metric(spec, SamplePlan(1, 0), tol=tol)
    with pytest.raises(SpecError):
        conformal.audit_pair(make_conformal(spec, "0.1*x1"), SamplePlan(1, 0), tol=tol)


def test_a_stage_error_of_every_point_becomes_its_record():
    # L does not depend on y1, so g is singular at every point: each point
    # fails the stack's metric stage, and no verdict can be decided
    spec = make_builtin_metric("expression", {"L": "sqrt(y2^2+y3^2+y4^2)"})
    report = classify_metric(spec, SamplePlan(3, 1))
    assert [r.eval_error for r in report.points] == [
        "metric eigenvalue 0.000e+00 below guard of largest 1.000e+00"
    ] * 3
    assert set(report.verdicts.values()) == {"undetermined"}


def test_a_tiny_scale_of_L_classifies_like_scale_one():
    # sqrt's series is scale-free, so L = 1e-40 |y| evaluates at every point
    plan = SamplePlan(2, 1)
    tiny, one = (
        classify_metric(make_builtin_metric("expression", {"L": L}), plan)
        for L in ("sqrt(1e-80*(y1^2+y2^2+y3^2+y4^2))", "sqrt(y1^2+y2^2+y3^2+y4^2)")
    )
    assert [p.eval_error for p in tiny.points] == [None, None]
    assert tiny.verdicts == one.verdicts
    assert [p.frame_error for p in tiny.points] == [p.frame_error for p in one.points]

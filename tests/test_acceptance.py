"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are pinned here and nowhere else.
"""

import functools
import json

import numpy as np
import pytest

from finsler4 import classify, cli, frame, geometry, metrics, oracle
from finsler4.conformal import audit_pair, evaluate_points, sigma_components
from finsler4.frame import SCALAR_NAMES, VanishingTorsion, scalar_profile
from finsler4.metrics import DomainSpec, SamplePlan, make_builtin_metric, make_conformal


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description}")

        return wrapper

    return deco


QUARTIC = make_builtin_metric("quartic_minkowski")
BERWALD_MOOR = make_builtin_metric(
    "berwald_moor", domain=DomainSpec(y_cone="all_positive", component_margin=0.25)
)
RANDERS_CONST = make_builtin_metric("randers", {"b": [0.2, 0.1, 0, 0]})
RANDERS_VAR = make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]})
RIEMANN_VAR = make_builtin_metric(
    "riemannian",
    {"g0": [["1+0.1*sin(x1)", 0, 0, 0], [0, "1+0.05*x2^2", 0, 0],
            [0, 0, 1, 0], [0, 0, 0, 1]]},
)

AD_FAMILIES = [
    ("quartic_minkowski", QUARTIC),
    ("berwald_moor", BERWALD_MOOR),
    ("randers_drift", RANDERS_VAR),
    ("riemannian_curved", RIEMANN_VAR),
]

FRAME_CORPUS = [
    ("quartic", QUARTIC),
    ("randers_const", RANDERS_CONST),
    ("randers_var", RANDERS_VAR),
    ("conformal_lift", make_conformal(QUARTIC, "0.1*x1")),
]

PLAN16 = SamplePlan(count=16, seed=2026)


@criterion(1, "jet derivatives match the finite-difference oracle to 1e-7")
def test_c01_ad_correctness():
    for _, spec in AD_FAMILIES:
        for x, y in metrics.sample_domain(spec.domain, PLAN16):
            pe = geometry.point_eval(spec, x, y)
            ora = oracle.oracle_tensors(spec, x, y)
            for ours, theirs in (
                (pe.metric.g, ora.g),
                (pe.cartan.C, ora.C),
                (pe.spray.G, ora.G),
                (pe.spray.N, ora.N),
            ):
                assert oracle.relative_error(ours, theirs) <= 1e-7


@criterion(2, "Euler identities: g y y = L^2 and the torsion transvection vanishes")
def test_c02_euler_identities():
    for _, spec in AD_FAMILIES + [("riemann_flat", RANDERS_CONST)]:
        for x, y in metrics.sample_domain(spec.domain, PLAN16):
            pe = geometry.point_eval(spec, x, y)
            assert abs(y @ pe.metric.g @ y - pe.L**2) <= 1e-9 * (1 + pe.L**2)
            assert np.max(np.abs(np.einsum("ijk,k->ij", pe.cartan.C, y))) <= 1e-9


@criterion(3, "Miron frame: orthonormal at valid points, torsion guard trips, H+I+K = LC")
def test_c03_miron_frame():
    with pytest.raises(VanishingTorsion):
        scalar_profile(geometry.point_eval(QUARTIC, np.zeros(4), np.ones(4)))
    seen = 0
    for name, spec in FRAME_CORPUS:
        for x, y in metrics.sample_domain(spec.domain, PLAN16):
            try:
                prof = scalar_profile(geometry.point_eval(spec, x, y))
            except frame.FrameError:
                continue
            seen += 1
            assert prof.residuals["orthonormality"] <= 1e-9
            assert prof.residuals["unified_scalar_sum"] <= 1e-8
    assert seen >= 32


@criterion(4, "frame derivative identities: parallel supporting covector, angular "
             "metric, and the h/v reconstruction residuals")
def test_c04_frame_derivative_identities():
    for name, spec in FRAME_CORPUS:
        for x, y in metrics.sample_domain(spec.domain, SamplePlan(count=8, seed=5)):
            try:
                prof = scalar_profile(geometry.point_eval(spec, x, y))
            except frame.FrameError:
                continue
            res = prof.residuals
            assert res["l_hderiv_zero"] <= 1e-8
            assert res["l_vderiv_angular"] <= 1e-8
            for key in ("recon_hderiv_m", "recon_hderiv_n", "recon_hderiv_p",
                        "recon_vderiv_m", "recon_vderiv_n", "recon_vderiv_p"):
                assert res[key] <= 1e-7, (name, key, res[key])


@criterion(5, "conformal invariance: covector/vector scaling, mixed torsion, and "
             "all eight main scalars invariant to 1e-7")
def test_c05_conformal_invariance_suite():
    pair = make_conformal(QUARTIC, "0.1*x1+0.05*x2^2")
    checked = 0
    for rep in evaluate_points(pair, metrics.sample_domain(QUARTIC.domain, PLAN16)):
        if rep.frame_error:
            continue
        checked += 1
        inv = rep.invariance_residuals
        assert inv["gauge_match"] == 0.0
        for k, v in inv.items():
            if k.startswith(("covector_scale", "vector_scale", "metric_scale",
                             "inverse_metric_scale", "torsion_scale")):
                assert v <= 1e-7, (k, v)
        assert inv["mixed_torsion_invariance"] <= 1e-7
        for name in SCALAR_NAMES:
            assert inv[f"main_scalar:{name}"] <= 1e-7
    assert checked >= 14


def _sigma_at(pair, x, y):
    base, lifted = (scalar_profile(geometry.point_eval(spec, x, y))
                    for spec in (pair.base, pair))
    return sigma_components(base, lifted)


@criterion(6, "projected spray difference: sign layout to 1e-7, transvection "
             "identity to 1e-7, homothety gives zero to 1e-10")
def test_c06_spray_difference_structure():
    pair = make_conformal(QUARTIC, "0.1*x1+0.05*x2^2")
    for x, y in metrics.sample_domain(QUARTIC.domain, PLAN16):
        try:
            sc = _sigma_at(pair, x, y)
        except frame.FrameError:
            continue
        for key, val in sc.extraction_residuals.items():
            if key == "spray_transvection":
                continue
            assert val <= 1e-7 * sc.extraction_scale, (key, val)
        assert sc.extraction_residuals["spray_transvection"] <= 1e-7

    hom = make_conformal(QUARTIC, "0.35")
    for x, y in metrics.sample_domain(QUARTIC.domain, SamplePlan(count=8, seed=9)):
        try:
            sc = _sigma_at(hom, x, y)
        except frame.FrameError:
            continue
        assert np.max(np.abs(sc.frame_grad())) <= 1e-10
        assert np.max(np.abs(sc.spray_block())) <= 1e-10


@criterion(7, "first-component transformation laws and the scalar h-derivative "
             "law hold to 1e-6 on position-independent bases")
def test_c07_first_component_laws():
    for sigma in ("0.1*x1", "0.1*x1+0.05*x2^2"):
        pair = make_conformal(QUARTIC, sigma)
        checked = 0
        for rep in evaluate_points(pair, metrics.sample_domain(QUARTIC.domain, PLAN16)):
            if rep.frame_error:
                continue
            checked += 1
            inv = rep.invariance_residuals
            for key in ("hbar1_law", "jbar1_law", "kbar1_law"):
                assert inv[key] <= 1e-6, (sigma, key, inv[key])
            for name in SCALAR_NAMES:
                assert inv[f"scalar_hderiv_l_law:{name}"] <= 1e-6, (sigma, name)
        assert checked >= 14


@criterion(8, "tensor route and frame route agree at every frame-valid point; "
             "vanishing h-derivative always implies vanishing transvection")
def test_c08_route_crosschecks():
    plan = SamplePlan(count=8, seed=77)
    for name, spec in FRAME_CORPUS + [("berwald_moor", BERWALD_MOOR)]:
        report = classify.classify_metric(spec, plan)
        summary = report.route_agreement["summary"]
        assert summary["landsberg_disagree"] == 0, name
        assert summary["berwald_disagree"] == 0, name
        if name != "berwald_moor":
            assert report.route_agreement["frame_valid_points"] > 0, name
        if report.verdicts["berwald"] == "yes":
            assert report.verdicts["landsberg"] == "yes", name
        for rec in report.points:
            if rec.eval_error:
                continue
            bound = 4.0 * float(np.linalg.norm(rec.y)) * rec.max_cartan_hderiv + 1e-9
            assert rec.max_cartan_hderiv_transvected <= bound, name


@criterion(9, "condition blocks co-occur with the measured character of the "
             "rescaled space, in both directions")
def test_c09_condition_cooccurrence():
    plan = SamplePlan(count=8, seed=55)
    pairs = [
        ("homothetic", make_conformal(QUARTIC, "0.4")),
        ("linear", make_conformal(QUARTIC, "0.1*x1")),
        ("curved", make_conformal(QUARTIC, "0.1*x1+0.05*x2^2")),
    ]
    for name, pair in pairs:
        audit = audit_pair(pair, plan, tol=1e-6)
        for summary in (audit.landsberg_summary, audit.berwald_summary):
            assert summary["disagree"] == 0, (name, summary)
            assert summary["inconclusive"] == 0, (name, summary)
            assert summary["agree"] > 0, (name, summary)
        # the failure direction must be exercised by the non-examples
        if name != "homothetic":
            big = [
                rep.direct_barred["max_cartan_hderiv_transvected"]
                / rep.direct_barred["hderiv_scale"]
                for rep in audit.reports
                if rep.frame_error is None
            ]
            assert max(big) > 1e-4, name


@criterion(10, "classification truth table through the CLI with byte-identical JSON")
def test_c10_cli_truth_table(tmp_path, capsys):
    specs = {
        "quartic": {"family": "quartic_minkowski", "samples": 6, "seed": 19},
        "berwald_moor": {"family": "berwald_moor", "samples": 6, "seed": 19},
        "randers_var": {
            "family": "randers", "params": {"b": ["0.1*x2", 0, 0, 0]},
            "samples": 6, "seed": 19,
        },
    }
    expected = {
        "quartic": {"berwald": "yes", "landsberg": "yes", "riemannian": "no",
                    "locally_minkowski_in_chart": "yes"},
        "berwald_moor": {"berwald": "yes", "landsberg": "yes", "riemannian": "no",
                         "locally_minkowski_in_chart": "yes"},
        "randers_var": {"berwald": "no", "landsberg": "no", "riemannian": "no",
                        "locally_minkowski_in_chart": "no"},
    }
    for name, doc in specs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["classify", str(path)])
        out1 = capsys.readouterr().out
        assert code == 0
        code = cli.main(["classify", str(path)])
        out2 = capsys.readouterr().out
        assert code == 0
        assert out1.encode() == out2.encode(), name
        report = json.loads(out1)
        assert report["verdicts"] == expected[name], name
        if name == "berwald_moor":
            assert all(
                p.get("frame_error") == "NotPositiveDefinite" for p in report["points"]
            )

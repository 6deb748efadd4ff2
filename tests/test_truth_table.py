"""Known verdicts at five scales: the gate for every verdict change.

Each row is a metric whose four verdicts a theorem fixes.  A constant
factor s is a homothety and changes no verdict, so the truth at s = 1
holds at every s.  A case checks the four verdicts and that no per-point
route judgement says ``disagree``.  A case that fails today is marked
``xfail(strict=True)`` with the ROADMAP item that owns it, so a fix fails
its strict cases until it removes their marks.
"""

import pytest

from finsler4.classify import classify_metric
from finsler4.metrics import SamplePlan, spec_from_json_dict

PLAN = SamplePlan(8, 5)
SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)
EUCLID = "sqrt(y1^2+y2^2+y3^2+y4^2)"
QUARTIC = "(y1^4+y2^4+y3^4+y4^4)^0.25"
SIGMA = "0.1*x1+0.2*x3"
CURVED_ALPHA_RANDERS = "sqrt(y1^2+(1+0.1*x1^2)^2*y2^2+y3^2+y4^2)+0.3*y3"
YES4 = ("yes", "yes", "yes", "yes")

# name -> (L, sigma or None, verdicts in riemannian, locally_minkowski_in_chart,
# berwald, landsberg order)
ROWS = {
    # Riemannian, so Berwald and Landsberg (Bao-Chern-Shen 2000)
    "euclid": (EUCLID, None, YES4),
    "riem_curved": ("sqrt((1+0.1*sin(x1))*y1^2+(1+0.05*x2^2)*y2^2+y3^2+y4^2)", None,
                    ("yes", "no", "yes", "yes")),
    # locally Minkowski, so Berwald and Landsberg; the chart-changed quartic
    # is not flat in its chart
    "quartic": (QUARTIC, None, ("no", "yes", "yes", "yes")),
    "randers_const": (f"{EUCLID}+0.3*y3", None, ("no", "yes", "yes", "yes")),
    "quartic_chart": ("((y1+0.2*x2*y2)^4+y2^4+y3^4+y4^4)^0.25", None,
                      ("no", "no", "yes", "yes")),
    # beta = 0.1*x2 dx1 is not closed, so not parallel: not Berwald
    # (Bao-Chern-Shen 2000, ch. 11); a Randers metric is Landsberg only if it
    # is Berwald (Matsumoto)
    "randers_drift": (f"{EUCLID}+0.1*x2*y1", None, ("no", "no", "no", "no")),
    # curved alpha with an alpha-parallel beta: Berwald (Bao-Chern-Shen
    # 2000), not flat in its chart
    "randers_curved_alpha": (CURVED_ALPHA_RANDERS, None, ("no", "no", "yes", "yes")),
    # a conformally rescaled Riemannian metric is Riemannian
    "conf_euclid": (EUCLID, SIGMA, ("yes", "no", "yes", "yes")),
    # not Berwald and not Landsberg by the engine's own kernel (ROADMAP
    # item 14: K_B = K_L = {0} for quartic), not by a theorem
    "conf_quartic": (QUARTIC, SIGMA, ("no", "no", "no", "no")),
    # not Berwald and not Landsberg by the engine's own kernel at each x
    # (ROADMAP item 17: K_B(x) = K_L(x) = {0} for the Berwald base
    # randers_curved_alpha, tests/test_kernels.py), not by a theorem
    "conf_randers_curved_alpha": (CURVED_ALPHA_RANDERS, SIGMA, ("no", "no", "no", "no")),
}

ITEM_1_VERDICTS = "item 1: the verdicts are not scale-free"
ITEM_1_ROUTES = "item 1: the routes disagree although the verdicts are right"
ITEM_4 = "item 4: the frame route depends on the gauge"
FAILING = {
    ("riem_curved", 1e6): ITEM_1_VERDICTS,
    ("randers_drift", 1e-6): ITEM_1_VERDICTS,
    ("randers_drift", 1e-3): ITEM_1_VERDICTS,
    ("conf_euclid", 1e6): ITEM_1_VERDICTS,
    ("conf_quartic", 1e-6): ITEM_1_VERDICTS,
    ("conf_quartic", 1e-3): ITEM_1_VERDICTS,
    ("conf_randers_curved_alpha", 1e-6): ITEM_1_VERDICTS,
    ("conf_randers_curved_alpha", 1e-3): ITEM_1_VERDICTS,
    ("randers_drift", 1e3): ITEM_1_ROUTES,
    ("randers_drift", 1e6): ITEM_1_ROUTES,
    ("conf_quartic", 1e3): ITEM_1_ROUTES,
    ("conf_quartic", 1e6): ITEM_1_ROUTES,
    ("conf_randers_curved_alpha", 1e3): ITEM_1_ROUTES,
    ("conf_randers_curved_alpha", 1e6): ITEM_1_ROUTES,
    ("randers_curved_alpha", 1e-6): ITEM_4,
    ("randers_curved_alpha", 1e-3): ITEM_4,
    ("randers_curved_alpha", 1.0): ITEM_4,
}


def _spec(L: str, sigma=None):
    doc = {"family": "expression", "L": L}
    if sigma is not None:
        doc["sigma"] = sigma
    return spec_from_json_dict(doc)[0]


def _case(name: str, s: float):
    marks = ()
    if (name, s) in FAILING:
        marks = pytest.mark.xfail(strict=True, reason=FAILING[name, s])
    return pytest.param(name, s, marks=marks, id=f"{name}-{s:g}")


@pytest.mark.parametrize("name, s", [_case(name, s) for name in ROWS for s in SCALES])
def test_truth_table(name, s):
    L, sigma, want = ROWS[name]
    report = classify_metric(_spec(f"{s!r}*({L})", sigma), PLAN)
    assert tuple(report.verdicts.values()) == want
    assert all(
        "disagree" not in (p["landsberg"], p["berwald"])
        for p in report.route_agreement["points"]
    )


# Not Finsler functions: none is positively homogeneous of degree 1 in y
# (ROADMAP item 2), so no point of one may be classified without an error.
@pytest.mark.xfail(strict=True, reason="item 2: homogeneity in y is not checked")
@pytest.mark.parametrize("L", [
    "y1^2+y2^2+y3^2+y4^2",
    f"{EUCLID}+0.1*y1^2",
    f"{EUCLID}+0.1*x2*y1+0.01",
])
def test_non_finsler_function_is_refused(L):
    report = classify_metric(_spec(L), PLAN)
    assert all(r.eval_error is not None for r in report.points)

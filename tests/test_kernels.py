"""The paper's question for a whole space, as linear algebra on d sigma.

For a base norm F (L free of x) and a linear factor sigma = <a, x>, the
Berwald curvature of e^sigma F differs from the base's by a term linear in
a (Hashiguchi 1976), and so does its Landsberg tensor (the Berwald
difference transvected by g y).  Their kernels K_B and K_L are fixed
subspaces of R^4: e^sigma F is Berwald iff a lies in K_B and Landsberg iff a
lies in K_L.  A regular Landsberg metric that is not Berwald would need
K_L larger than K_B (Bao 2007).

These tests measure both maps at a point x over the 12 directions of
``SamplePlan(12, 7)`` and count their singular values above a cut.  Each
direction's block is divided by max|Delta G| / |y|^3, Delta G the spray
difference, a reference that does not change under L -> sL or y -> ly.
This is numerical evidence at sampled directions, not a proof.

The same law holds on a Berwald base that depends on x: its own Berwald
curvature vanishes, so e^sigma F is Berwald at x iff d sigma(x) lies in
K_B(x), and Landsberg iff it lies in K_L(x), kernels that now depend on x.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finsler4 import cli, geometry
from finsler4.metrics import SamplePlan, make_builtin_metric, make_conformal, sample_domain

CUT = 1e-6
X0 = np.zeros(4)


def _kernel_maps(base, x=X0) -> tuple:
    """The Berwald and Landsberg differences of e^(x_a) F and F, a = 1..4,
    at the point x, as two matrices with one column per a: 256 and 64 rows
    per direction, each direction's rows divided by its max|Delta G| / |y|^3."""
    lifts = [make_conformal(base, f"x{a}") for a in range(1, 5)]
    berwald, landsberg = [], []
    for _, y in sample_domain(base.domain, SamplePlan(12, 7)):
        base_pe = geometry.point_eval(base, x, y)
        pes = [base_pe, *(geometry.point_eval(lift, x, y, base_pe) for lift in lifts)]
        spray = geometry.PointEval.stack(pes).spray
        norm_y = float(np.linalg.norm(y))
        scale = np.abs(spray.G[1:] - spray.G[0]).max() / norm_y**3
        # [a, i, j, k, l]: the difference of D^i_jkl for sigma = x_a
        delta_d = (spray.G_hess3[1:] - spray.G_hess3[0]) / scale
        gy = base_pe.metric.g @ y / norm_y
        berwald.append(delta_d.reshape(4, -1).T)
        landsberg.append(np.einsum("i,aijkl->jkla", gy, delta_d).reshape(-1, 4))
    return np.concatenate(berwald), np.concatenate(landsberg)


def _kernel_dimensions(base, x=X0) -> tuple:
    """(dim K_B, dim K_L, singular values of the Berwald map, of the
    Landsberg map) at the point x."""
    values = [np.linalg.svd(m, compute_uv=False) for m in _kernel_maps(base, x)]
    return (*(4 - int((v > CUT).sum()) for v in values), *values)


ALPHA = "sqrt(y1^2+y2^2+y3^2+y4^2)"
# name -> (family, params, dim K_B = dim K_L); the comments give the smallest
# singular values of the Berwald and the Landsberg map where they are 0
_NORMS = {
    "quartic": ("quartic_minkowski", None, 0),
    "randers_constant_b": ("expression", {"L": f"{ALPHA}+0.3*y3"}, 0),
    "riemannian": ("expression", {"L": "sqrt(y1^2+2*y2^2+y3^2+y4^2)"}, 4),
    "berwald_moor": ("berwald_moor", None, 4),
    # (alpha, beta) norms with a constant beta = 0.3 y3 or 0.9 y3
    "alpha_plus_beta2_over_alpha":  # 0.77, 0.26
        ("expression", {"L": f"{ALPHA}+(0.3*y3)^2/{ALPHA}"}, 0),
    "square_metric":  # (alpha + beta)^2 / alpha: 21, 5.9
        ("expression", {"L": f"({ALPHA}+0.3*y3)^2/{ALPHA}"}, 0),
    "exponential":  # 8.6, 3.3
        ("expression", {"L": f"{ALPHA}*exp(0.3*y3/{ALPHA})"}, 0),
    "randers_large_b": ("expression", {"L": f"{ALPHA}+0.9*y3"}, 0),  # 24, 6.8
    # the p = 6 norm, and quartic with mixed terms under the root
    "p6": ("expression", {"L": "(y1^6+y2^6+y3^6+y4^6)^0.16666666666666666"}, 0),  # 2.3e4, 51
    "quartic_mixed": ("expression",  # 7.7e2, 43
                      {"L": "(y1^4+y2^4+y3^4+y4^4+0.5*(y1^2*y2^2+y3^2*y4^2))^0.25"}, 0),
    "p8": ("expression", {"L": "(y1^8+y2^8+y3^8+y4^8)^0.125"}, 0),  # 6.5e4, 26
    "quartic_mixed_1": ("expression",  # cross-term weight 1.0: 3.3e2, 42
                        {"L": "(y1^4+y2^4+y3^4+y4^4+1.0*(y1^2*y2^2+y3^2*y4^2))^0.25"}, 0),
}


@pytest.mark.parametrize("name", sorted(_NORMS))
def test_berwald_and_landsberg_kernels_have_the_same_dimension(name):
    family, params, dim = _NORMS[name]
    _assert_kernels(make_builtin_metric(family, params), X0, dim)


def _assert_kernels(base, x, dim):
    dim_b, dim_l, sv_b, sv_l = _kernel_dimensions(base, x)
    assert (dim_b, dim_l) == (dim, dim), (sv_b, sv_l)
    # no singular value lies within three orders of magnitude of the cut
    for values in (sv_b, sv_l):
        assert values.max() < 1e-3 * CUT if dim == 4 else values.min() > 1e3 * CUT


# Berwald bases that depend on x (test_truth_table's rows of these names):
# name -> (L, dim K_B = dim K_L at every x); the comments give the smallest
# singular values of the Berwald and the Landsberg map at X0 and at X1, or
# for dim 4 the largest
CURVED_ALPHA_RANDERS = "sqrt(y1^2+(1+0.1*x1^2)^2*y2^2+y3^2+y4^2)+0.3*y3"
_BERWALD_BASES = {
    "randers_curved_alpha": (CURVED_ALPHA_RANDERS, 0),  # 9.2, 3.4; 9.0, 3.5
    # 7.1e-14, 6.5e-14; 6.2e-14, 5.4e-14
    "riem_curved": ("sqrt((1+0.1*sin(x1))*y1^2+(1+0.05*x2^2)*y2^2+y3^2+y4^2)", 4),
}
X1 = np.array([0.7, -0.4, 0.2, 0.5])


@pytest.mark.parametrize("x", [X0, X1], ids=["x0", "x1"])
@pytest.mark.parametrize("name", sorted(_BERWALD_BASES))
def test_kernels_of_a_berwald_base_at_a_point(name, x):
    L, dim = _BERWALD_BASES[name]
    _assert_kernels(make_builtin_metric("expression", {"L": L}), x, dim)


@settings(max_examples=20, deadline=None)
@given(x=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_curved_alpha_randers_kernels_agree_at_every_point(x):
    _assert_kernels(make_builtin_metric("expression", {"L": CURVED_ALPHA_RANDERS}),
                    np.array(x), 0)


# base norm -> the verdicts the CLI gives e^sigma F for a linear sigma with
# a != 0: K_B = K_L = R^4 for the first two, {0} for quartic.  The first two
# refuse their frames (VanishingTorsion, NotPositiveDefinite), so the tensor
# route decides alone; quartic's frame route must agree at every point
_CLI_NORMS = {
    "euclidean": ({"family": "expression", "params": {"L": ALPHA}}, "yes"),
    "berwald_moor": ({"family": "berwald_moor"}, "yes"),
    "quartic": ({"family": "quartic_minkowski"}, "no"),
}


@settings(max_examples=25, deadline=None)
@given(a=st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4)
       .filter(lambda a: max(map(abs, a)) >= 0.1))
@example(a=[0.1, 0.0, 0.0, 0.0])
@example(a=[0.0, 0.0, 0.0, -0.1])
def test_cli_classifies_linear_lifts_as_the_kernels_say(a, tmp_path_factory):
    sigma = "+".join(f"{c!r}*x{i}" for i, c in enumerate(a, 1))
    path = tmp_path_factory.mktemp("lift") / "spec.json"
    for name, (base, want) in _CLI_NORMS.items():
        path.write_text(json.dumps({**base, "sigma": sigma, "samples": 8, "seed": 5}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["classify", str(path)]) == 0
        doc = json.loads(out.getvalue())
        assert (doc["verdicts"]["berwald"], doc["verdicts"]["landsberg"]) == (want, want), name
        if name == "quartic":
            summary = doc["route_agreement"]["summary"]
            assert (summary["berwald_agree"], summary["landsberg_agree"]) == (8, 8)

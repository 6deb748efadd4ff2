"""The paper's question for a whole space, as linear algebra on d sigma.

For a base norm F (L free of x) and a linear factor sigma = <a, x>, the
Berwald curvature of e^sigma F differs from the base's by a term linear in
a (Hashiguchi 1976), and so does its Landsberg tensor (the Berwald
difference transvected by g y).  Their kernels K_B and K_L are fixed
subspaces of R^4: e^sigma F is Berwald iff a lies in K_B and Landsberg iff a
lies in K_L.  A regular Landsberg metric that is not Berwald would need
K_L larger than K_B (Bao 2007).

These tests measure both maps at x = 0 over the 12 directions of
``SamplePlan(12, 7)`` and count their singular values above a cut.  Each
direction's block is divided by max|Delta G| / |y|^3, Delta G the spray
difference, a reference that does not change under L -> sL or y -> ly.
This is numerical evidence at sampled directions, not a proof.
"""

import numpy as np
import pytest

from finsler4 import geometry
from finsler4.metrics import SamplePlan, make_builtin_metric, make_conformal, sample_domain

CUT = 1e-6
X0 = np.zeros(4)


def _kernel_maps(base) -> tuple:
    """The Berwald and Landsberg differences of e^(x_a) F and F, a = 1..4,
    as two matrices with one column per a: 256 and 64 rows per direction,
    each direction's rows divided by its max|Delta G| / |y|^3."""
    lifts = [make_conformal(base, f"x{a}") for a in range(1, 5)]
    berwald, landsberg = [], []
    for _, y in sample_domain(base.domain, SamplePlan(12, 7)):
        base_pe = geometry.point_eval(base, X0, y)
        pes = [base_pe, *(geometry.point_eval(lift, X0, y, base_pe) for lift in lifts)]
        spray = geometry.PointEval.stack(pes).spray
        norm_y = float(np.linalg.norm(y))
        scale = np.abs(spray.G[1:] - spray.G[0]).max() / norm_y**3
        # [a, i, j, k, l]: the difference of D^i_jkl for sigma = x_a
        delta_d = (spray.G_hess3[1:] - spray.G_hess3[0]) / scale
        gy = base_pe.metric.g @ y / norm_y
        berwald.append(delta_d.reshape(4, -1).T)
        landsberg.append(np.einsum("i,aijkl->jkla", gy, delta_d).reshape(-1, 4))
    return np.concatenate(berwald), np.concatenate(landsberg)


def _kernel_dimensions(base) -> tuple:
    """(dim K_B, dim K_L, singular values of the Berwald map, of the
    Landsberg map)."""
    values = [np.linalg.svd(m, compute_uv=False) for m in _kernel_maps(base)]
    return (*(4 - int((v > CUT).sum()) for v in values), *values)


# name -> (family, params, dim K_B = dim K_L)
_NORMS = {
    "quartic": ("quartic_minkowski", None, 0),
    "randers_constant_b": ("expression", {"L": "sqrt(y1^2+y2^2+y3^2+y4^2)+0.3*y3"}, 0),
    "riemannian": ("expression", {"L": "sqrt(y1^2+2*y2^2+y3^2+y4^2)"}, 4),
    "berwald_moor": ("berwald_moor", None, 4),
}


@pytest.mark.parametrize("name", sorted(_NORMS))
def test_berwald_and_landsberg_kernels_have_the_same_dimension(name):
    family, params, dim = _NORMS[name]
    dim_b, dim_l, sv_b, sv_l = _kernel_dimensions(make_builtin_metric(family, params))
    assert (dim_b, dim_l) == (dim, dim), (sv_b, sv_l)
    # no singular value lies within three orders of magnitude of the cut
    for values in (sv_b, sv_l):
        assert values.max() < 1e-3 * CUT if dim == 4 else values.min() > 1e3 * CUT

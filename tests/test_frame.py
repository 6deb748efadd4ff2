import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from finsler4 import classify, frame, geometry
from finsler4.frame import (
    VECTOR_NAMES,
    NotPositiveDefinite,
    SeedsDiffer,
    VanishingTorsion,
    scalar_profile,
)
from finsler4.geometry import point_eval
from finsler4.metrics import (
    SamplePlan,
    make_builtin_metric,
    make_conformal,
    sample_domain,
    spec_from_json_dict,
)

X0 = np.zeros(4)
ONES = np.ones(4)
Y2 = np.array([1.0, 2.0, 1.0, 1.0])

QUARTIC = make_builtin_metric("quartic_minkowski")


def _frame_at(spec, x, y):
    pe = point_eval(spec, x, y)
    return scalar_profile(pe), pe


def test_vanishing_torsion_at_symmetric_point():
    with pytest.raises(VanishingTorsion):
        _frame_at(QUARTIC, X0, ONES)


def test_riemannian_always_vanishing_torsion():
    spec = make_builtin_metric(
        "riemannian", {"g0": [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}
    )
    for x, y in sample_domain(spec.domain, SamplePlan(count=4, seed=3)):
        with pytest.raises(VanishingTorsion):
            _frame_at(spec, x, y)


def _scaled_expression(template, s):
    return make_builtin_metric("expression", {"L": template.format(s=s)})


def test_frame_refusals_do_not_depend_on_the_scale_of_L():
    """Rescaling L by a constant rescales g, C and the frame, and leaves
    the weighted torsion, the gauge and the main scalars alone, so every
    refusal threshold must be scale-free too."""
    euclid = "{s}*sqrt(y1^2+2*y2^2+y3^2+y4^2)"
    quartic = "{s}*(y1^4+y2^4+y3^4+y4^4)^0.25"
    points = list(sample_domain(QUARTIC.domain, SamplePlan(count=4, seed=1)))
    for s in ("1e-10", "1e-6", "1", "1e10"):
        for x, y in points:
            with pytest.raises(VanishingTorsion):
                _frame_at(_scaled_expression(euclid, s), x, y)
    for x, y in points:
        ref = scalar_profile(point_eval(_scaled_expression(quartic, "1"), x, y))
        ref_scalars = ref.scalars
        for s in ("1e-6", "1e10"):
            got = scalar_profile(point_eval(_scaled_expression(quartic, s), x, y))
            assert got.gauge_tag == ref.gauge_tag
            scalars = got.scalars
            assert np.max(np.abs(scalars - ref_scalars)) <= 1e-12 * np.max(np.abs(ref_scalars))


def test_berwald_moor_not_positive_definite():
    spec = make_builtin_metric("berwald_moor")
    with pytest.raises(NotPositiveDefinite):
        _frame_at(spec, X0, np.array([1.0, 2.0, 1.0, 2.0]))


def test_frame_orthonormality_and_structure():
    bundle, pe = _frame_at(QUARTIC, X0, Y2)
    metric, cartan = pe.metric, pe.cartan
    gram = bundle.e @ metric.g @ bundle.e.T
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-9
    assert np.allclose(bundle.e[0], Y2 / pe.L, atol=1e-14)
    c_up = metric.g_inv @ cartan.C_vec
    assert np.max(np.abs(bundle.e[1] * cartan.C_norm - c_up)) <= 1e-9
    assert np.max(np.abs(bundle.e_flat - bundle.e @ metric.g)) < 1e-12


def test_frame_determinism_bit_identical():
    a, _ = _frame_at(QUARTIC, X0, Y2)
    b, _ = _frame_at(QUARTIC, X0, Y2)
    assert np.array_equal(a.e, b.e)
    assert np.array_equal(a.e_flat, b.e_flat)
    assert a.gauge_tag == b.gauge_tag


def gram_schmidt_metric(g, start, skip_tol=1e-6):
    """Orthonormal frame for the inner product g, straight numpy route.

    Starts from the given vectors (normalised and assumed independent),
    extends with standard basis seeds in index order, skipping seeds whose
    residual is shorter than `skip_tol`, and makes the first nonzero
    component of each appended vector positive.
    """
    frame = []
    for v in start:
        v = np.asarray(v, dtype=float)
        frame.append(v / math.sqrt(v @ g @ v))
    for seed in np.eye(4):
        if len(frame) == 4:
            break
        r = seed.copy()
        for v in frame:
            r -= (r @ g @ v) * v
        norm = math.sqrt(max(r @ g @ r, 0.0))
        if norm < skip_tol:
            continue
        r /= norm
        for comp in r:
            if abs(comp) > 1e-9:
                if comp < 0:
                    r = -r
                break
        frame.append(r)
    if len(frame) != 4:
        raise ValueError("could not complete an orthonormal frame")
    return np.array(frame)


def test_gram_schmidt_metric_orthonormal():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(4, 4))
    g = a @ a.T + 4 * np.eye(4)
    start = [np.array([1.0, 0.5, 0.0, 0.0]), np.array([-0.3, 1.0, 0.2, 0.0])]
    # orthogonalise the second start vector against the first
    v0 = start[0] / math.sqrt(start[0] @ g @ start[0])
    w = start[1] - (start[1] @ g @ v0) * v0
    frame = gram_schmidt_metric(g, [v0, w])
    assert np.max(np.abs(frame @ g @ frame.T - np.eye(4))) < 1e-12


def test_frame_matches_independent_gram_schmidt():
    randers = make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]})
    cases = [(QUARTIC, X0, Y2)] + [
        (spec, x, y)
        for spec in (QUARTIC, randers)
        for x, y in sample_domain(spec.domain, SamplePlan(count=6, seed=29))
    ]
    for spec, x, y in cases:
        bundle, pe = _frame_at(spec, x, y)
        metric, cartan = pe.metric, pe.cartan
        l = y / pe.L
        m = metric.g_inv @ cartan.C_vec
        m = m / np.sqrt(m @ metric.g @ m)
        other = gram_schmidt_metric(metric.g, [l, m])
        assert np.max(np.abs(other - bundle.e)) <= 1e-12
        assert np.max(np.abs(other @ metric.g - bundle.e_flat)) <= 1e-12


def _weighted_torsion_components(bundle, pe):
    """M[a, b, c] = L * C(e_a, e_b, e_c), the frame components of L C."""
    return pe.L * np.einsum("ijk,ai,bj,ck->abc", pe.cartan.C, bundle.e, bundle.e, bundle.e)


def test_torsion_frame_components_vanish_on_supporting_slot():
    comps = _weighted_torsion_components(*_frame_at(QUARTIC, X0, Y2))
    assert np.max(np.abs(comps[0])) <= 1e-8
    assert np.max(np.abs(comps[:, 0])) <= 1e-8
    assert np.max(np.abs(comps[:, :, 0])) <= 1e-8


def test_unified_main_scalar_sum():
    bundle, pe = _frame_at(QUARTIC, X0, Y2)
    M = _weighted_torsion_components(bundle, pe)
    total = sum(M[frame.SCALAR_SLOTS[name]] for name in ("H", "I", "K"))
    assert abs(total - pe.L * pe.cartan.C_norm) <= 1e-8


def test_torsion_trace_constraints():
    # the n- and p-traces of the weighted torsion components vanish
    M = _weighted_torsion_components(*_frame_at(QUARTIC, X0, Y2))
    assert abs(M[1, 1, 2] + M[2, 2, 2] + M[2, 3, 3]) <= 1e-8
    assert abs(M[1, 1, 3] + M[2, 2, 3] + M[3, 3, 3]) <= 1e-8


def test_profile_locally_minkowski():
    for spec in (QUARTIC, make_builtin_metric("randers", {"b": [0.2, 0.1, 0, 0]})):
        for x, y in sample_domain(spec.domain, SamplePlan(count=6, seed=11)):
            prof = scalar_profile(point_eval(spec, x, y))
            h, j, k = prof.vectors[:3]
            assert np.max(np.abs(h)) <= 1e-7
            assert np.max(np.abs(j)) <= 1e-7
            assert np.max(np.abs(k)) <= 1e-7
            assert np.max(np.abs(prof.h_derivs)) <= 1e-7
            assert np.max(np.abs(prof.v_derivs[:, 0])) <= 1e-8


def test_profile_reconstruction_residuals_randers():
    spec = make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]})
    for x, y in sample_domain(spec.domain, SamplePlan(count=6, seed=13)):
        prof = scalar_profile(point_eval(spec, x, y))
        res = prof.residuals
        assert res["l_hderiv_zero"] <= 1e-8
        assert res["l_vderiv_angular"] <= 1e-8
        for key in ("recon_hderiv_m", "recon_hderiv_n", "recon_hderiv_p",
                    "recon_vderiv_m", "recon_vderiv_n", "recon_vderiv_p"):
            assert res[key] <= 1e-7, (key, res[key])
        assert res["hderiv_m_l_component"] <= 1e-8
        assert res["hderiv_m_m_component"] <= 1e-8
        assert res["orthonormality"] <= 1e-9


def test_scalar_v_derivatives_match_finite_differences():
    # a generic point: symmetric ones sit on seed-selection boundaries where
    # neighbouring evaluations can pick a different gauge branch
    spec = QUARTIC
    x, y = X0, np.array([1.1, 2.0, 0.9, 1.3])
    prof = scalar_profile(point_eval(spec, x, y))
    h = 1e-5
    for row, name in enumerate(frame.SCALAR_NAMES):
        for r in range(4):
            yp, ym = y.copy(), y.copy()
            yp[r] += h
            ym[r] -= h
            sp = scalar_profile(point_eval(spec, x, yp)).scalars
            sm = scalar_profile(point_eval(spec, x, ym)).scalars
            fd = (sp[row] - sm[row]) / (2 * h)
            jet_val = 0.0
            # S;_alpha = L * dS/dy^r e_alpha^r: invert via covector components
            # compare the raw y-gradient instead: sum_a S;_a e_flat[a, r] / L
            jet_val = prof.v_derivs[row] @ prof.e_flat[:, r] / prof.pe.L
            assert jet_val == pytest.approx(fd, rel=1e-5, abs=1e-5), (name, r)


def test_conformal_gauge_commutes():
    lifted = make_conformal(QUARTIC, "0.1*x1")
    x = np.array([0.7, -0.2, 0.3, 0.1])
    for _, y in sample_domain(QUARTIC.domain, SamplePlan(count=4, seed=17)):
        base_b, _ = _frame_at(QUARTIC, x, y)
        lift_b, _ = _frame_at(lifted, x, y)
        es = np.exp(0.1 * x[0])
        assert base_b.gauge_tag == lift_b.gauge_tag
        assert np.max(np.abs(lift_b.e - base_b.e / es)) <= 1e-9


def test_main_scalar_conformal_invariance():
    lifted = make_conformal(QUARTIC, "0.1*x1+0.05*x2^2")
    x = np.array([0.4, 0.8, -0.5, 0.2])
    for _, y in sample_domain(QUARTIC.domain, SamplePlan(count=4, seed=19)):
        sb = scalar_profile(point_eval(QUARTIC, x, y)).scalars
        sl = scalar_profile(point_eval(lifted, x, y)).scalars
        for row in range(len(frame.SCALAR_NAMES)):
            assert abs(sl[row] - sb[row]) <= 1e-7


def test_landsberg_frame_conditions_both_directions():
    # vanishing transvected h-derivative comes with vanishing l-components;
    # a clearly non-Landsberg metric breaks them
    spec_flat = QUARTIC
    x, y = X0, Y2
    pe = point_eval(spec_flat, x, y)
    _, c0 = pe.cartan_h_derivatives
    prof = scalar_profile(pe)
    scale = 1.0 + np.max(np.abs(pe.cartan.C))
    assert np.max(np.abs(c0)) <= 1e-8 * scale
    small = max(
        abs(prof.vectors[0, 0]),
        abs(prof.vectors[1, 0]),
        abs(prof.vectors[2, 0]),
        np.max(np.abs(prof.h_derivs[:, 0])),
    )
    assert small <= 1e-6

    spec_curved = make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]})
    hits = 0
    for x, y in sample_domain(spec_curved.domain, SamplePlan(count=6, seed=23)):
        pe = point_eval(spec_curved, x, y)
        _, c0 = pe.cartan_h_derivatives
        scale = 1.0 + np.max(np.abs(pe.cartan.C))
        if np.max(np.abs(c0)) < 1e-4 * scale:
            continue
        hits += 1
        prof = scalar_profile(pe)
        big = max(
            abs(prof.vectors[0, 0]),
            abs(prof.vectors[1, 0]),
            abs(prof.vectors[2, 0]),
            np.max(np.abs(prof.h_derivs[:, 0])),
        )
        assert big > 1e-6
    assert hits > 0


def _written_out_connection_vectors(pe):
    """The frame-derivative formulas written out one by one, with their
    signs placed by hand: m_i|j = n_i h_j + p_i j_j, n_i|j = -m_i h_j +
    p_i k_j, p_i|j = -m_i j_j - n_i k_j, and L m_i|_j = -l_i m_j + n_i u_j
    + p_i v_j and so on.  This is the reference the connection-form algebra
    of frame._profiles must reproduce bit for bit."""
    e_jets, e_flat_jets, _ = frame._frame_from_ring(*frame._field_jets(pe.as_stack()))
    e_jets, e_flat_jets = e_jets[0], e_flat_jets[0]
    e, e_flat = e_jets[..., 0].copy(), e_flat_jets[..., 0].copy()
    L0, g = pe.L, pe.metric.g
    cov = frame.covariant_derivatives(e_flat_jets, pe.spray, pe.connection)
    l_h, m_h, n_h, p_h = cov.h
    l_v, m_v, n_v, p_v = cov.v
    l_up, m_up, n_up, p_up = e
    l_lo, m_lo, n_lo, p_lo = e_flat

    h_cov = n_up @ m_h
    j_cov = p_up @ m_h
    k_cov = p_up @ n_h
    u_cov = L0 * (n_up @ m_v)
    v_cov = L0 * (p_up @ m_v)
    w_cov = L0 * (p_up @ n_v)
    vectors = {name: e @ c for name, c in zip(
        "hjkuvw", (h_cov, j_cov, k_cov, u_cov, v_cov, w_cov))}

    def mx(a):
        return float(np.max(np.abs(a)))

    residuals = {
        "l_hderiv_zero": mx(l_h),
        "l_vderiv_angular": mx(L0 * l_v - (g - np.outer(l_lo, l_lo))),
        "recon_hderiv_m": mx(m_h - (np.outer(n_lo, h_cov) + np.outer(p_lo, j_cov))),
        "recon_hderiv_n": mx(n_h - (-np.outer(m_lo, h_cov) + np.outer(p_lo, k_cov))),
        "recon_hderiv_p": mx(p_h - (-np.outer(m_lo, j_cov) - np.outer(n_lo, k_cov))),
        "recon_vderiv_m": mx(
            L0 * m_v
            - (-np.outer(l_lo, m_lo) + np.outer(n_lo, u_cov) + np.outer(p_lo, v_cov))
        ),
        "recon_vderiv_n": mx(
            L0 * n_v
            - (-np.outer(l_lo, n_lo) - np.outer(m_lo, u_cov) + np.outer(p_lo, w_cov))
        ),
        "recon_vderiv_p": mx(
            L0 * p_v
            - (-np.outer(l_lo, p_lo) - np.outer(m_lo, v_cov) - np.outer(n_lo, w_cov))
        ),
        "hderiv_m_l_component": mx(l_up @ m_h),
        "hderiv_m_m_component": mx(m_up @ m_h),
        "orthonormality": mx(e @ g @ e.T - np.eye(4)),
    }
    return vectors, residuals


def test_connection_vectors_equal_the_written_out_formulas():
    randers_x2 = make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]})
    randers_const = make_builtin_metric("randers", {"b": [0.2, 0.1, 0, 0]})
    lifted = make_conformal(QUARTIC, "0.1*x1+0.05*x2^2")
    cases = [(QUARTIC, X0, Y2), (QUARTIC, X0, np.array([1.1, 2.0, 0.9, 1.3]))]
    for spec, seed in ((QUARTIC, 31), (randers_x2, 37), (randers_const, 41), (lifted, 43)):
        cases += [(spec, x, y) for x, y in sample_domain(spec.domain, SamplePlan(6, seed))]
    for spec, x, y in cases:
        pe = point_eval(spec, x, y)
        vectors, residuals = _written_out_connection_vectors(pe)
        prof = scalar_profile(pe)
        for name, want in vectors.items():
            got = prof.vectors[VECTOR_NAMES.index(name)]
            assert np.array_equal(got, want), (name, got, want)
        assert list(prof.residuals)[: len(residuals)] == list(residuals)
        for key, want in residuals.items():
            assert prof.residuals[key] == want, (key, prof.residuals[key], want)


def test_first_read_of_residuals_equals_the_written_out_formulas():
    # a profile of a stack member builds its residuals alone when they are
    # first read, bit for bit as the written-out formulas at a lone point
    outcomes = classify.evaluate_stack([point_eval(spec, x, y) for spec, x, y, _ in _MIXED])
    profs = [o for o in outcomes if isinstance(o, frame.ProfileResult)]
    assert len(profs) == 3
    profs.append(scalar_profile(point_eval(_RANDERS_X2, np.array([0.1, 0.2, 0.3, 0.4]), Y2)))
    for prof in profs:
        assert "residuals" not in vars(prof)
        _, residuals = _written_out_connection_vectors(prof.pe)
        got = prof.residuals
        assert list(got) == [*residuals, "unified_scalar_sum"]
        for key, want in residuals.items():
            assert got[key] == want, key
        H, I, K = (prof.scalars[frame.SCALAR_NAMES.index(n)] for n in ("H", "I", "K"))
        assert got["unified_scalar_sum"] == abs(H + I + K - prof.pe.L * prof.pe.cartan.C_norm)
        assert all(type(v) is float for v in got.values())


def test_residuals_are_built_only_where_they_are_read(monkeypatch, tmp_path):
    # classify and the audit on the benchmark's specs never read them, and
    # finsler4 frame reads them once
    from test_geometry import _perfbench_specs

    from finsler4 import cli, conformal

    calls = []
    build = frame._frame_residuals

    def counted(prof):
        calls.append(prof)
        return build(prof)

    monkeypatch.setattr(frame, "_frame_residuals", counted)
    specs = _perfbench_specs()
    pairs = [spec for spec in specs if spec.family == "conformal"]
    assert len(pairs) == 2
    for spec in specs:
        if spec in pairs:
            conformal.audit_pair(spec, SamplePlan(4, 5))
        else:
            classify.classify_metric(spec, SamplePlan(4, 5))
    assert calls == []
    golden = str(Path(__file__).parent / "goldens" / "quartic_small.json")
    out = str(tmp_path / "frame.json")
    assert cli.main(["frame", golden, "--x", "0,0,0,0", "--y", "1,2,1,1", "--output", out]) == 0
    assert len(calls) == 1


def test_profile_result_is_one_flat_record_of_arrays():
    prof = scalar_profile(point_eval(QUARTIC, X0, Y2))
    assert [f.name for f in dataclasses.fields(prof)] == [
        "pe", "e", "e_flat", "gauge_tag", "scalars", "v_derivs", "h_derivs", "vectors",
        "cov_h", "cov_v",
    ]
    assert VECTOR_NAMES == ("h", "j", "k", "u", "v", "w")
    shapes = [a.shape for a in (prof.e, prof.e_flat, prof.scalars, prof.v_derivs,
                                prof.h_derivs, prof.vectors, prof.cov_h, prof.cov_v)]
    assert shapes == [(4, 4), (4, 4), (8,), (8, 4), (8, 4), (6, 4), (4, 4, 4), (4, 4, 4)]
    # the residuals are built when first read, not stored as a field
    assert "residuals" not in vars(prof)
    # cov_h and cov_v are the covariant derivatives of the four covector rows
    _, e_flat_jets, _ = frame._frame_from_ring(*frame._field_jets(prof.pe.as_stack()))
    cov = frame.covariant_derivatives(e_flat_jets[0], prof.pe.spray, prof.pe.connection)
    assert np.array_equal(prof.cov_h, cov.h) and np.array_equal(prof.cov_v, cov.v)


# members of one mixed stack: (spec, x, y, lone outcome)
_RANDERS_X2 = make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]})
_CURVED_RIEMANNIAN = make_builtin_metric(
    "riemannian",
    {"g0": [["1+0.1*sin(x1)", 0, 0, 0], [0, "1+0.05*x2^2", 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
)
_MIXED = (
    # y2 alone differs from the other components, so e2 lies in the plane of
    # l and m and is skipped: this member takes the seeds e1 and e3
    (QUARTIC, X0, Y2, "profile"),
    (QUARTIC, np.array([0.3, -0.2, 0.1, 0.5]), np.array([1.1, 2.0, 0.9, 1.3]), "profile"),
    (_CURVED_RIEMANNIAN, np.array([0.2, 0.4, 0.0, 0.0]), Y2, "VanishingTorsion"),
    (make_builtin_metric("berwald_moor"), X0, np.array([1.0, 2.0, 1.0, 2.0]),
     "NotPositiveDefinite"),
    # y and the torsion vector span the (y1, y2) plane, so the seeds e1 and e2
    # are skipped and this member completes its frame from e3 and e4 alone
    (_RANDERS_X2, np.array([0.1, 0.5, 0.0, 0.0]), np.array([1.0, 2.0, 0.0, 0.0]), "profile"),
)


def _profile_bits(prof):
    arrays = [prof.e, prof.e_flat, prof.v_derivs, prof.h_derivs,
              prof.scalars, *prof.vectors, list(prof.residuals.values())]
    return [repr(prof.gauge_tag), list(prof.residuals)] + [
        np.asarray(a, dtype=float).tobytes() for a in arrays
    ]


def test_refusals_take_only_their_own_member_out_of_a_stack():
    # the three members with a frame take different seeds, so the stack
    # raises; evaluate_stack gives each member the profile or refusal it gets alone
    pes = [point_eval(spec, x, y) for spec, x, y, _ in _MIXED]
    with pytest.raises(frame.SeedsDiffer):
        scalar_profile(geometry.PointEval.stack(pes))
    outcomes = classify.evaluate_stack(pes)
    for (spec, x, y, kind), got in zip(_MIXED, outcomes):
        try:
            want = scalar_profile(point_eval(spec, x, y))
        except frame.FrameError as err:
            want = err
        assert type(want).__name__ == (kind if kind != "profile" else "ProfileResult")
        assert type(got) is type(want)
        if kind == "profile":
            assert _profile_bits(got) == _profile_bits(want)
        else:
            assert str(got) == str(want)
    seeds = [out.gauge_tag["seeds"] for out in outcomes if not isinstance(out, Exception)]
    # three seed patterns, one per member left with a frame
    assert seeds == [(0, 2), (0, 1), (2, 3)]


def _no_frame_jets(st):
    raise AssertionError("frame field jets built for a refused frame")


def test_vanishing_torsion_is_refused_before_any_frame_jet(monkeypatch):
    # the refusal reads L and |C| from the PointEval's stages
    monkeypatch.setattr(frame, "_field_jets", _no_frame_jets)
    points = sample_domain(_CURVED_RIEMANNIAN.domain, SamplePlan(count=3, seed=5))
    messages = []
    for x, y in points:
        with pytest.raises(VanishingTorsion) as refusal:
            scalar_profile(point_eval(_CURVED_RIEMANNIAN, x, y))
        assert str(refusal.value).startswith("weighted torsion length ")
        messages.append(str(refusal.value))
    # a stack of them refuses each member in place, with its lone message
    entries = scalar_profile(
        geometry.PointEval.stack([point_eval(_CURVED_RIEMANNIAN, x, y) for x, y in points])
    )
    assert [type(entry) for entry in entries] == [VanishingTorsion] * 3
    assert [str(entry) for entry in entries] == messages


def test_a_mixed_stack_names_only_its_torsion_free_member(monkeypatch):
    # one member with a frame, one without torsion and one indefinite: the
    # refused members are their lone errors, and the frame fields are built
    # once, for the admitted member alone
    members = [next(m for m in _MIXED if m[3] == kind)
               for kind in ("profile", "VanishingTorsion", "NotPositiveDefinite")]
    want = []
    for spec, x, y, _ in members:
        try:
            want.append(scalar_profile(point_eval(spec, x, y)))
        except frame.FrameError as err:
            want.append(err)
    pes = [point_eval(spec, x, y) for spec, x, y, _ in members]
    built = []
    field_jets = frame._field_jets

    def counted(st):
        built.append(st.members)
        return field_jets(st)

    monkeypatch.setattr(frame, "_field_jets", counted)
    got = scalar_profile(geometry.PointEval.stack(pes))
    assert built == [(pes[0],)]
    assert _profile_bits(got[0]) == _profile_bits(want[0])
    for entry, lone in zip(got[1:], want[1:]):
        assert type(entry) is type(lone) and str(entry) == str(lone)
        assert entry.__traceback__ is None


def test_the_rerun_builds_only_the_frame_again(monkeypatch):
    # the stack caches every tensor stage before its frame build refuses,
    # and each rerun starts from those stages: the three members the stack
    # admits take different seeds, so each of the five runs alone
    stages = ("metric", "cartan", "spray", "dx_g", "connection", "cartan_h_derivatives")
    calls = dict.fromkeys(stages + ("scalar_profile",), 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in stages:
        prop = geometry.PointEval.__dict__[name]
        monkeypatch.setattr(prop, "func", counted(name, prop.func))
    monkeypatch.setattr(frame, "scalar_profile", counted("scalar_profile", scalar_profile))
    outcomes = classify.evaluate_stack([point_eval(spec, x, y) for spec, x, y, _ in _MIXED])
    assert [type(o).__name__ for o in outcomes] == [
        "ProfileResult", "ProfileResult", "VanishingTorsion", "NotPositiveDefinite",
        "ProfileResult",
    ]
    assert calls == {**dict.fromkeys(calls, 1), "scalar_profile": 1 + len(_MIXED)}
    assert all(o.__traceback__ is None for o in outcomes if isinstance(o, Exception))


# an off-diagonal Randers-type metric whose frames can carry a flipped sign
_SKEWED, _ = spec_from_json_dict(
    {"family": "expression", "L": "sqrt(y1^2+y2^2+y3^2+y4^2-1.5*y1*y2+0.8*y1*y3)+0.3*y2"}
)
_SKIPS = {
    # seeds (0, 1), both signs flipped
    "flipped": (_SKEWED, X0, np.array([0.7, -1.5, 0.0, -0.2]),
                {"seeds": (0, 1), "sign_flips": (-1, -1)}),
    # seeds (0, 2): skips seed 1 after taking seed 0 unflipped
    "skip1": (QUARTIC, X0, Y2, {"seeds": (0, 2), "sign_flips": (1, 1)}),
    # seeds (0, 3): skips seeds 1 and 2 after taking seed 0 flipped
    "skip12": (_SKEWED, X0, np.array([1.0, 2.6, -0.9, 0.0]),
               {"seeds": (0, 3), "sign_flips": (-1, 1)}),
}


@pytest.mark.parametrize("names", [("flipped", "skip1"), ("flipped", "skip1", "skip12")])
def test_members_that_skip_a_later_seed_keep_their_own_sign_flips(names):
    # members that skip different seeds refuse the stack together, and the
    # rerun gives each member its own seeds and sign flips
    members = [_SKIPS[name] for name in names]
    pes = [point_eval(*m[:3]) for m in members]
    with pytest.raises(SeedsDiffer):
        scalar_profile(geometry.PointEval.stack(pes))
    outcomes = classify.evaluate_stack(pes)
    for (spec, x, y, tag), got in zip(members, outcomes):
        want = scalar_profile(point_eval(spec, x, y))
        assert want.gauge_tag == tag
        assert _profile_bits(got) == _profile_bits(want)

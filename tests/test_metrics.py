import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finsler4 import classify, exprdsl, frame, geometry, jets, metrics
from finsler4.metrics import (
    DomainSpec,
    InvalidParameters,
    SamplePlan,
    SpecSchemaError,
    eval_L,
    eval_L_value,
    make_builtin_metric,
    make_conformal,
    sample_domain,
    spec_from_json_dict,
)

X0 = np.zeros(4)
ONES = np.ones(4)


def test_quartic_default_domain():
    spec = make_builtin_metric("quartic_minkowski")
    assert spec.domain.y_cone == "all_nonzero"


def test_berwald_moor_default_domain():
    spec = make_builtin_metric("berwald_moor")
    assert spec.domain.y_cone == "all_positive"


def test_randers_invalid_when_drift_too_long():
    with pytest.raises(InvalidParameters):
        make_builtin_metric("randers", {"b": [1.2, 0, 0, 0]})


def test_unknown_family():
    with pytest.raises(InvalidParameters):
        make_builtin_metric("nope")


def test_eval_quartic_at_ones():
    spec = make_builtin_metric("quartic_minkowski")
    jet = eval_L(spec, X0, ONES, jets.DegreeCaps(1, 4))
    assert jet.base == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_eval_berwald_moor():
    spec = make_builtin_metric("berwald_moor")
    jet = eval_L(spec, X0, np.array([1.0, 2.0, 1.0, 2.0]), jets.DegreeCaps(1, 4))
    assert jet.base == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_eval_conformal_scales_base():
    base = make_builtin_metric("quartic_minkowski")
    spec = make_conformal(base, "0.1*x1")
    jet = eval_L(spec, np.array([1.0, 0, 0, 0]), ONES, jets.DegreeCaps(1, 4))
    assert jet.base == pytest.approx(math.exp(0.1) * math.sqrt(2.0), rel=1e-12)


def test_conformal_sigma_must_be_position_only():
    base = make_builtin_metric("quartic_minkowski")
    with pytest.raises(metrics.SigmaUsesY):
        make_conformal(base, "0.1*y1")


def test_conformal_coherence_coefficientwise():
    base = make_builtin_metric("quartic_minkowski")
    spec = make_conformal(base, "0.1*x1+0.05*x2^2")
    x = np.array([0.4, -0.2, 0.1, 0.0])
    y = np.array([1.0, 2.0, 1.0, 1.5])
    caps = jets.DegreeCaps(1, 4)
    lifted = eval_L(spec, x, y, caps)
    env = [jets.variable(i, x[i], caps) for i in range(4)]
    sigma_jet = jets.exp(
        0.1 * env[0] + 0.05 * jets.power(env[1], 2)
    )
    manual = sigma_jet * eval_L(base, x, y, caps)
    scale = 1.0 + np.max(np.abs(manual.c))
    assert np.max(np.abs(lifted.c - manual.c)) / scale < 1e-12


@pytest.mark.parametrize(
    "family,params",
    [
        ("quartic_minkowski", None),
        ("berwald_moor", None),
        ("randers", {"b": ["0.1*x2", 0, 0, 0]}),
        ("riemannian", {"g0": [[1, 0, 0, 0], [0, "1+0.05*x2^2", 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}),
        ("expression", {"L": "sqrt(y1^2+2*y2^2+y3^2+y4^2)"}),
    ],
)
def test_positive_homogeneity(family, params):
    spec = make_builtin_metric(family, params)
    for x, y in sample_domain(spec.domain, SamplePlan(count=6, seed=13)):
        L1 = eval_L_value(spec, x, y)
        for lam in (0.5, 2.0):
            assert abs(eval_L_value(spec, x, lam * y) - lam * L1) <= 1e-10 * L1


def test_sampling_deterministic_and_in_cone():
    spec = make_builtin_metric("berwald_moor")
    plan = SamplePlan(count=100, seed=99)
    a = sample_domain(spec.domain, plan)
    b = sample_domain(spec.domain, plan)
    assert all(np.array_equal(xa, xb) and np.array_equal(ya, yb)
               for (xa, ya), (xb, yb) in zip(a, b))
    for _, y in a:
        assert np.all(y > 0)
        assert 0.5 - 1e-12 <= np.linalg.norm(y) <= 2.0 + 1e-12


def test_sampling_count_zero():
    spec = make_builtin_metric("quartic_minkowski")
    assert sample_domain(spec.domain, SamplePlan(count=0, seed=1)) == []


def test_negative_sample_seed_is_invalid():
    with pytest.raises(InvalidParameters):
        SamplePlan(1, -1)
    assert SamplePlan(1, 0).seed == 0


@pytest.mark.parametrize("count, seed, name", [
    (2.5, 1, "count"), (True, 1, "count"), (2, 1.5, "seed"), (2, True, "seed"), (2, "1", "seed"),
], ids=["float-count", "bool-count", "float-seed", "bool-seed", "str-seed"])
def test_sample_plan_refuses_a_count_or_seed_that_is_not_a_whole_number(count, seed, name):
    with pytest.raises(InvalidParameters, match=f"^sample {name} must be an integer$"):
        SamplePlan(count, seed)


def test_a_numpy_integer_plan_is_the_plan_of_its_int():
    plan = SamplePlan(np.int64(3), np.uint64(2**63 + 5))
    assert plan == SamplePlan(3, 2**63 + 5)
    assert type(plan.count) is int and type(plan.seed) is int
    assert len(sample_domain(DomainSpec(), plan)) == 3


def _first_doubles(seed: int, n: int) -> list:
    return list(itertools.islice(metrics._pcg64_doubles(seed), n))


def test_the_sample_stream_is_fixed():
    # the first draws of numpy.random.default_rng(seed).random(), as literals
    assert _first_doubles(0, 3) == [0.6369616873214543, 0.2697867137638703, 0.04097352393619469]
    assert _first_doubles(11, 3) == [0.12857020276919962, 0.49927786244011496, 0.6014983576233575]
    assert _first_doubles(2**64, 3) == [0.4492388188116676, 0.39104163833546157, 0.5769687853211488]


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**128 + 1])
def test_the_sample_stream_is_numpys_at_word_boundaries(seed):
    assert _first_doubles(seed, 300) == np.random.default_rng(seed).random(300).tolist()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**200 - 1))
def test_the_sample_stream_is_numpys(seed):
    assert _first_doubles(seed, 300) == np.random.default_rng(seed).random(300).tolist()


def _numpy_draw_direction(rng, domain: DomainSpec) -> np.ndarray:
    margin = domain.component_margin
    if domain.y_cone == "all_positive":
        lo = max(margin, metrics._CONE_MARGIN)
        return rng.uniform(lo, 1.0, 4)
    if domain.y_cone == "unit_ball_interior_shifted":
        for _ in range(256):
            p = rng.uniform(-1.0, 1.0, 4)
            if np.linalg.norm(p) <= 1.0 - max(margin, metrics._CONE_MARGIN):
                out = p.copy()
                out[0] += metrics._SHIFTED_BALL_CENTER
                return out
        raise metrics.EmptyDomain("could not sample the shifted-ball cone")
    for _ in range(256):
        u = rng.uniform(-1.0, 1.0, 4)
        if np.all(np.abs(u) >= margin):
            return u
    raise metrics.EmptyDomain("could not sample the all_nonzero cone")


def _numpy_sample_domain(domain: DomainSpec, plan: SamplePlan) -> list:
    """sample_domain as it was written on numpy.random: the reference."""
    rng = np.random.default_rng(plan.seed)
    points = []
    for _ in range(plan.count):
        x = np.array([rng.uniform(lo, hi) for lo, hi in domain.x_box])
        u = _numpy_draw_direction(rng, domain)
        scale = rng.uniform(0.5, 2.0)
        y = u * (scale / np.linalg.norm(u))
        points.append((x, y))
    return points


@pytest.mark.parametrize("cone", metrics.Y_CONES)
@pytest.mark.parametrize("margin", [0.0, 0.05, 0.4])
def test_sample_points_are_those_of_numpy_random(cone, margin):
    # a margin of 0.4 rejects about 7 of 8 all_nonzero draws and about 24
    # of 25 shifted-ball draws
    dom = DomainSpec(x_box=((-1.0, 1.0), (0.0, 0.5), (-3.0, -2.0), (2.0, 2.0)),
                     y_cone=cone, component_margin=margin)
    for seed in (0, 7, 2**64 + 3):
        got = sample_domain(dom, SamplePlan(12, seed))
        want = _numpy_sample_domain(dom, SamplePlan(12, seed))
        assert [(x.tolist(), y.tolist()) for x, y in got] == \
            [(x.tolist(), y.tolist()) for x, y in want]


@pytest.mark.parametrize("cone", metrics.Y_CONES)
def test_huge_direction_is_decided_without_a_warning(cone):
    dom = DomainSpec(y_cone=cone)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [dom.contains(np.zeros(4), [big, 1, 1, 1]) for big in (1e200, 1e160)]
    # both directions lie on the shifted-ball cone's axis to within 1e-160
    assert got == [cone != "all_positive"] * 2


def test_shifted_ball_cone_sampling():
    dom = DomainSpec(y_cone="unit_ball_interior_shifted")
    for _, y in sample_domain(dom, SamplePlan(count=50, seed=3)):
        assert dom.contains(np.zeros(4), y)
        assert y[0] > 0


def test_domain_rejects_outside_cone():
    spec = make_builtin_metric("berwald_moor")
    with pytest.raises(jets.DomainViolation):
        eval_L(spec, X0, np.array([1.0, -1.0, 1.0, 1.0]), jets.DegreeCaps(1, 4))


def test_json_schema_roundtrip():
    doc = {
        "family": "randers",
        "params": {"b": ["0.1*x2", 0, 0, 0]},
        "domain": {"x_box": [[-1, 1]] * 4, "y_cone": "all_nonzero"},
        "samples": 8,
        "seed": 5,
    }
    spec, plan = spec_from_json_dict(doc)
    assert spec.family == "randers"
    assert plan == SamplePlan(count=8, seed=5)


def test_json_schema_rejects_unknown_fields():
    with pytest.raises(SpecSchemaError):
        spec_from_json_dict({"family": "quartic_minkowski", "bogus": 1})
    with pytest.raises(SpecSchemaError):
        spec_from_json_dict({"family": "quartic_minkowski", "domain": {"zz": 1}})
    with pytest.raises(SpecSchemaError):
        spec_from_json_dict({"family": "quartic_minkowski", "L": "y1"})


def test_json_schema_sigma_wraps_conformal():
    spec, _ = spec_from_json_dict({"family": "quartic_minkowski", "sigma": "0.1*x1"})
    assert spec.family == "conformal"
    assert spec.base.family == "quartic_minkowski"


# -- the array ring ---------------------------------------------------------

CURVED_G0 = [["1+0.1*sin(x1)", 0, 0, 0], [0, "1+0.05*x2^2", 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
EXPRESSION_L = "(y1^4+y2^4+y3^4+y4^4+0.5*(y1^2+y2^2+y3^2+y4^2)^2)^0.25*exp(0.1*x1)"
ARRAY_SPECS = {
    "quartic": ("quartic_minkowski", None, None),
    "berwald_moor": ("berwald_moor", None, None),
    "randers": ("randers", {"b": ["0.1*x2", 0, 0, 0]}, None),
    "riemannian_curved": ("riemannian", {"g0": CURVED_G0}, None),
    "expression": ("expression", {"L": EXPRESSION_L}, None),
    "conformal_randers": ("randers", {"b": ["0.1*x2", 0, 0, 0]}, "0.2*x1+0.1*sin(x2)"),
}


def _columns(points):
    xs = np.array([x for x, _ in points]).T
    ys = np.array([y for _, y in points]).T
    return xs, ys


@pytest.mark.parametrize("name", sorted(ARRAY_SPECS))
def test_array_eval_matches_scalar_columns(name):
    family, params, sigma = ARRAY_SPECS[name]
    spec = make_builtin_metric(family, params)
    if sigma is not None:
        spec = make_conformal(spec, sigma)
    points = sample_domain(spec.domain, SamplePlan(count=64, seed=5))
    got = eval_L_value(spec, *_columns(points))
    want = np.array([eval_L_value(spec, x, y) for x, y in points])
    assert isinstance(want[0], float) and got.shape == (64,)
    assert got.tobytes() == want.tobytes()


def test_array_eval_of_a_constant_has_the_point_shape():
    spec = make_builtin_metric("expression", {"L": "2"})
    got = eval_L_value(spec, np.zeros((4, 3)), np.ones((4, 3)))
    assert np.array_equal(got, np.full(3, 2.0))


# (family, params, x and y of the one bad column): every other column is fine;
# "overflow" is where the float ring used to raise a bare OverflowError
BAD_COLUMNS = {
    "berwald_moor_product": ("berwald_moor", None, [0, 0, 0, 0], [1, -1, 1, 1]),
    "randers_drift_too_long": ("randers", {"b": ["0.6*x1", 0, 0, 0]}, [2, 0, 0, 0], [1, 1, 1, 1]),
    "sqrt_non_positive": ("expression", {"L": "sqrt(y1)"}, [0, 0, 0, 0], [-1, 1, 1, 1]),
    "log_non_positive": ("expression", {"L": "log(y1)+2"}, [0, 0, 0, 0], [0, 1, 1, 1]),
    "fractional_power_non_positive": ("expression", {"L": "y1^0.5"}, [0, 0, 0, 0], [-1, 1, 1, 1]),
    "division_by_zero": ("expression", {"L": "y1/(x1-0.75)"}, [0.75, 0, 0, 0], [1, 1, 1, 1]),
    "overflow": ("expression", {"L": "exp(1000*x1)*(y1^2+y2^2+y3^2+y4^2)^0.5"},
                 [1, 0, 0, 0], [1, 1, 1, 1]),
}


@pytest.mark.parametrize("name", sorted(BAD_COLUMNS))
def test_array_domain_violation_in_one_column(name):
    family, params, x_bad, y_bad = BAD_COLUMNS[name]
    spec = make_builtin_metric(family, params)
    rng = np.random.default_rng(3)
    xs = rng.uniform(-0.5, 0.5, (4, 8))
    ys = rng.uniform(0.5, 1.0, (4, 8))
    eval_L_value(spec, xs, ys)  # the good columns evaluate
    xs[:, 5], ys[:, 5] = x_bad, y_bad
    with pytest.raises(jets.DomainViolation):
        eval_L_value(spec, xs, ys)
    with pytest.raises(jets.DomainViolation):
        eval_L_value(spec, xs[:, 5], ys[:, 5])



# -- the family formulas as written out -----------------------------------------

def _entry(v):
    return exprdsl.parse_expr(v) if isinstance(v, str) else exprdsl.Lit(float(v))


def _written_out_L(family, params, env):
    """L of a built-in family as the hand-written formula it is defined by,
    in whatever ring ``env`` lives in: the reference for the family's
    expression."""
    ys = env[4:]
    if family == "quartic_minkowski":
        return jets.power(sum(jets.power(v, 4) for v in ys), 0.25)
    if family == "berwald_moor":
        return jets.power(ys[0] * ys[1] * ys[2] * ys[3], 0.25)
    if family == "riemannian":
        g0 = [[_entry(v) for v in row] for row in params["g0"]]
        return jets.sqrt(jets.ring_sum(
            exprdsl.eval_expr(g0[i][j], env) * ys[i] * ys[j]
            for i in range(4) for j in range(4)
        ))
    assert family == "randers"
    bvals = [exprdsl.eval_expr(_entry(v), env) for v in params["b"]]
    return jets.sqrt(sum(v * v for v in ys)) + sum(b * v for b, v in zip(bvals, ys))


# name -> (family, params, sigma)
FORMULA_SPECS = {
    "quartic": ("quartic_minkowski", None, None),
    "berwald_moor": ("berwald_moor", None, None),
    "riemannian_curved": ("riemannian", {"g0": CURVED_G0}, None),
    "randers_constant": ("randers", {"b": [0.3, 0.1, 0, 0]}, None),
    "randers_drift": ("randers", {"b": ["0.1*x2", 0, 0, 0]}, None),
    "conformal_randers": ("randers", {"b": ["0.1*x2", 0, 0, 0]}, "0.2*x1+0.1*sin(x2)"),
}


def _written_out(family, params, sigma, env):
    L = _written_out_L(family, params, env)
    if sigma is None:
        return L
    return jets.exp(exprdsl.eval_expr(exprdsl.parse_expr(sigma), env)) * L


@pytest.mark.parametrize("name", sorted(FORMULA_SPECS))
def test_family_L_equals_its_written_out_formula_bit_for_bit(name):
    family, params, sigma = FORMULA_SPECS[name]
    spec = make_builtin_metric(family, params)
    if sigma is not None:
        spec = make_conformal(spec, sigma)
    points = sample_domain(spec.domain, SamplePlan(8, 3))
    for caps in (geometry.MASTER_CAPS, frame.FRAME_CAPS):
        for x, y in points:
            env = [jets.variable(i, float(v), caps) for i, v in enumerate((*x, *y))]
            want = _written_out(family, params, sigma, env)
            got = eval_L(spec, x, y, caps)
            assert got.c.tobytes() == want.c.tobytes()
            assert got.deg == want.deg
    for x, y in points:
        want = _written_out(family, params, sigma, [float(v) for v in (*x, *y)])
        assert eval_L_value(spec, x, y) == want
    xs, ys = _columns(points)
    want = _written_out(family, params, sigma, list(xs) + list(ys))
    assert eval_L_value(spec, xs, ys).tobytes() == want.tobytes()


# built-in specs whose literal-zero g0 or b entries L leaves out
ZERO_TERM_SPECS = {
    "riemannian_diagonal": ("riemannian", {"g0": [[1, 0, 0, 0], [0, 2, 0, 0],
                                                  [0, 0, 3, 0], [0, 0, 0, 4]]}),
    "riemannian_negative": ("riemannian", {"g0": [[2, -0.5, 0, 0], [-0.5, 1, 0, -0.0],
                                                  [0, 0, 1, -0.25], [0, -0.0, -0.25, 1]]}),
    "riemannian_curved": ("riemannian", {"g0": CURVED_G0}),
    "riemannian_zero_row": ("riemannian", {"g0": [[1, 0, 0, 0], [0, 0, 0, 0],
                                                  [0, 0, 1, 0], [0, 0, 0, 1]]}),
    "randers_zero": ("randers", {"b": [0, 0, 0, 0]}),
    "randers_drift": ("randers", {"b": ["0.1*x2", 0, 0, 0]}),
    "randers_negative": ("randers", {"b": [-0.3, 0, 0.1, -0.0]}),
}


def _with_every_term(family, params) -> str:
    """The family's L as an expression string that keeps every zero term."""
    if family == "riemannian":
        g0 = params["g0"]
        return "sqrt(" + "+".join(
            f"({g0[i][j]})*y{i + 1}*y{j + 1}" for i in range(4) for j in range(4)
        ) + ")"
    drift = "+".join(f"({b})*y{i + 1}" for i, b in enumerate(params["b"]))
    return f"sqrt(y1*y1+y2*y2+y3*y3+y4*y4)+({drift})"


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("name", sorted(ZERO_TERM_SPECS))
def test_leaving_out_zero_terms_changes_no_bit_of_L(name):
    family, params = ZERO_TERM_SPECS[name]
    spec = make_builtin_metric(family, params)
    full = make_builtin_metric("expression", {"L": _with_every_term(family, params)})
    assert spec.L_ast != full.L_ast
    points = sample_domain(spec.domain, SamplePlan(8, 11))
    for x, y in points:
        got, want = (eval_L(s, x, y, geometry.MASTER_CAPS) for s in (spec, full))
        assert _same_bits(got.c, want.c) and got.deg == want.deg
    xs, ys = _columns(points)
    env = [*xs, *ys]
    got, want = exprdsl.eval_expr(spec.L_ast, env), exprdsl.eval_expr(full.L_ast, env)
    assert _same_bits(got, want)


def test_an_all_zero_g0_still_fails_as_sqrt_of_zero():
    spec = make_builtin_metric("riemannian", {"g0": [[0] * 4] * 4})
    assert spec.L_ast == exprdsl.Call("sqrt", exprdsl.Lit(0.0))
    report = classify.classify_metric(spec, SamplePlan(2, 1))
    assert [r.eval_error for r in report.points] == ["sqrt of a non-positive value"] * 2


# -- refusals ---------------------------------------------------------------


def test_an_x_box_of_three_intervals_is_invalid():
    with pytest.raises(InvalidParameters, match=r"^x_box must be four \[lo, hi\] intervals$"):
        DomainSpec(x_box=((0, 1),) * 3)


@pytest.mark.parametrize("cone, margin, message", [
    ("all_nonzero", 0.999, "could not sample the all_nonzero cone"),
    ("unit_ball_interior_shifted", 0.9999, "could not sample the shifted-ball cone"),
])
def test_a_margin_that_leaves_no_direction_is_an_empty_domain(cone, margin, message):
    dom = DomainSpec(y_cone=cone, component_margin=margin)
    with pytest.raises(metrics.EmptyDomain, match=f"^{message}$"):
        sample_domain(dom, SamplePlan(count=1))


def test_a_python_overflow_on_the_way_is_a_domain_violation():
    # jets.power turns the infinite exponent into an int, which Python refuses
    inf_power = exprdsl.Pow(exprdsl.Var(4), math.inf)
    spec = make_builtin_metric("expression", {"L": inf_power})
    message = "^cannot convert float infinity to integer$"
    with pytest.raises(jets.DomainViolation, match=message):
        eval_L(spec, X0, ONES, jets.DegreeCaps(1, 2))
    with pytest.raises(jets.DomainViolation, match=message):
        eval_L_value(spec, X0, ONES)


@pytest.mark.parametrize("make, message", [
    (lambda: make_conformal(make_builtin_metric("quartic_minkowski"), 0.3),
     "the conformal factor must be an expression string or node, got 0.3"),
    (lambda: make_builtin_metric("expression", {"L": 5}),
     "'L' must be an expression string or node, got 5"),
])
def test_a_sigma_or_L_that_is_not_an_expression_is_refused_at_construction(make, message):
    with pytest.raises(InvalidParameters, match=f"^{message}$"):
        make()


def test_a_malformed_node_inside_a_library_tree_is_an_eval_error_of_each_point():
    from finsler4.conformal import audit_pair

    bad = exprdsl.BinOp("+", exprdsl.Var(0), 0.3)  # 0.3 is no node
    with pytest.raises(jets.InvalidArgument, match=r"^not an expression node: 0\.3$"):
        exprdsl.eval_expr(bad, [0.0] * 8)
    quartic = make_builtin_metric("quartic_minkowski")
    plan = SamplePlan(count=2, seed=1)
    want = ["not an expression node: 0.3"] * 2
    spec = make_builtin_metric("expression", {"L": exprdsl.BinOp("+", quartic.L_ast, bad)})
    assert [r.eval_error for r in classify.classify_metric(spec, plan).points] == want
    audit = audit_pair(make_conformal(quartic, bad), plan)
    assert [r.eval_error for r in audit.reports] == want

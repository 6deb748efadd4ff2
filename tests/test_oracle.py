import math

import numpy as np
import pytest

from finsler4 import geometry, metrics
from finsler4.jets import OrderExceedsCaps
from finsler4.metrics import SamplePlan, make_builtin_metric
from finsler4.oracle import FDConfig, fd_partial, oracle_tensors, relative_error

X0 = np.zeros(4)
ONES = np.ones(4)


def test_fd_second_derivative_of_cube():
    f = lambda z: z[4] ** 3
    at = np.array([0.0] * 4 + [2.0, 0, 0, 0])
    got = fd_partial(f, at, {4: 2})
    assert got == pytest.approx(12.0, abs=1e-6)


def test_fd_quartic_L2_first_partial():
    # closed form: d(L^2)/dy1 = 2 y1^3 / sqrt(Q); Q = 4 at the ones point
    spec = make_builtin_metric("quartic_minkowski")
    f = lambda z: metrics.eval_L_value(spec, z[:4], z[4:]) ** 2
    got = fd_partial(f, np.concatenate([X0, ONES]), {4: 1})
    assert got == pytest.approx(1.0, abs=1e-6)


def test_fd_depth_limit():
    f = lambda z: z[4] ** 6
    at = np.array([0.0] * 4 + [1.0, 0, 0, 0])
    with pytest.raises(OrderExceedsCaps):
        fd_partial(f, at, {4: 4})
    with pytest.raises(OrderExceedsCaps):
        fd_partial(f, at, {4: 5})


def test_fd_explicit_step_respected():
    f = lambda z: math.sin(z[0])
    at = np.zeros(8)
    got = fd_partial(f, at, {0: 1}, FDConfig(step=1e-3, richardson=False))
    # plain central difference at h=1e-3: cos(0) - h^2/6 truncation visible
    assert got == pytest.approx(1.0 - 1e-6 / 6.0, abs=1e-9)


def test_oracle_quartic_metric_closed_form():
    spec = make_builtin_metric("quartic_minkowski")
    got = oracle_tensors(spec, X0, ONES)
    expected = np.full((4, 4), -0.25) + 1.5 * np.eye(4)
    assert np.max(np.abs(got.g - expected)) < 1e-6


def test_oracle_locally_minkowski_spray_vanishes():
    spec = make_builtin_metric("quartic_minkowski")
    got = oracle_tensors(spec, X0, np.array([1.0, 2.0, 1.0, 1.0]))
    assert np.max(np.abs(got.G)) < 1e-7
    assert np.max(np.abs(got.N)) < 1e-7


def test_oracle_matches_jets_on_randers():
    spec = make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]})
    for x, y in metrics.sample_domain(spec.domain, SamplePlan(count=3, seed=21)):
        pe = geometry.point_eval(spec, x, y)
        ora = oracle_tensors(spec, x, y)
        assert relative_error(pe.spray.N, ora.N) < 1e-5
        assert relative_error(pe.metric.g, ora.g) < 1e-5

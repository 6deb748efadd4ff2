import itertools

import numpy as np
import pytest

from finsler4 import cli, geometry, metrics, oracle
from finsler4.jets import InvalidArgument, OrderExceedsCaps
from finsler4.metrics import SamplePlan, make_builtin_metric
from finsler4.oracle import FDConfig, fd_partial, fd_partials, oracle_tensors, relative_error

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
    f = lambda z: np.sin(z[0])
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


def _poly_sqrt(z):
    return z[4] ** 3 * z[0] - 2.0 * z[5] * z[6] ** 2 + np.sqrt(1.0 + z[1] ** 2 + z[7] ** 2)


POLY_ORDERS = [{}, {4: 1}, {0: 1, 4: 1}, {5: 2}, {4: 3}, {6: 2, 5: 1},
               {1: 1, 7: 1, 6: 1}, {7: 2}, {0: 1}]


@pytest.mark.parametrize(
    "cfg",
    [FDConfig(), FDConfig(richardson=False), FDConfig(step=1e-3),
     FDConfig(step=1e-3, richardson=False)],
)
def test_fd_partials_equal_one_call_per_order(cfg):
    at = np.array([0.3, -0.2, 0.1, 0.4, 1.1, -0.7, 0.9, 0.5])
    room = np.array([np.inf] * 4 + [0.5] * 4)
    batched = fd_partials(_poly_sqrt, at, POLY_ORDERS, cfg, room)
    singles = [fd_partial(_poly_sqrt, at, o, cfg, room) for o in POLY_ORDERS]
    assert np.array_equal(batched, singles)
    assert batched[0] == _poly_sqrt(at[:, None])[0]


def test_fd_partials_calls_f_once_on_one_block():
    blocks = []

    def f(z):
        blocks.append(z.shape)
        return _poly_sqrt(z)

    fd_partials(f, np.ones(8), POLY_ORDERS)
    assert len(blocks) == 1 and blocks[0][0] == 8


@pytest.mark.parametrize("step", [-1.0, 0.0, float("nan"), float("inf")])
def test_fd_step_must_be_positive_and_finite(step):
    # an order-zero partial never reads the step, so the config checks it
    with pytest.raises(InvalidArgument):
        FDConfig(step=step)


@pytest.mark.parametrize("order", [{4: 1, 5: -1}, {9: 1}, (1, 0, 0), (0,) * 7 + (-1,)])
def test_fd_order_must_be_non_negative_degrees_of_the_eight_slots(order):
    with pytest.raises(InvalidArgument):
        fd_partial(lambda z: z[4] ** 3, np.ones(8), order)


def test_oracle_tensors_evaluates_L_once(monkeypatch):
    calls = []
    orig = metrics.eval_L_value

    def counting(spec, x, y):
        calls.append(np.shape(x))
        return orig(spec, x, y)

    monkeypatch.setattr(metrics, "eval_L_value", counting)
    spec = make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]})
    oracle_tensors(spec, X0, np.array([1.0, 2.0, 1.0, 1.0]))
    assert len(calls) == 1


def test_batched_oracle_matches_columnwise_float_reference(monkeypatch):
    # same stencils, but L evaluated one column at a time in the float ring
    cases = [
        (spec, x, y)
        for _, spec in cli._selftest_cases()
        for x, y in metrics.sample_domain(spec.domain, SamplePlan(count=4, seed=11))
    ]
    batched = [oracle_tensors(spec, x, y) for spec, x, y in cases]
    orig = metrics.eval_L_value

    def columnwise(spec, x, y):
        x, y = np.asarray(x), np.asarray(y)
        return np.array([orig(spec, x[:, m], y[:, m]) for m in range(x.shape[1])])

    monkeypatch.setattr(metrics, "eval_L_value", columnwise)
    assert len(cases) == 16
    for (spec, x, y), got in zip(cases, batched):
        ref = oracle_tensors(spec, x, y)
        for name in ("g", "C", "G", "N"):
            assert relative_error(getattr(got, name), getattr(ref, name)) <= 1e-7, name


def _stencil_per_order(at, order, cfg, room):
    # reference: one order at a time, the tensor-product stencil built in loops
    vars_orders = [(slot, deg) for slot, deg in enumerate(order) if deg > 0]
    if not vars_orders:
        return at[:, None], np.ones(1)
    h_rel, levels = (0.02, 8) if cfg.step is None else (cfg.step, 2 if cfg.richardson else 1)
    reach = max(max(abs(o) for o, _ in oracle._STENCILS[deg]) for _, deg in vars_orders)
    steps0 = np.zeros(len(at))
    for slot, _ in vars_orders:
        h = h_rel * (1.0 + abs(at[slot]))
        if np.isfinite(room[slot]):
            h = min(h, 0.2 * room[slot] / reach)
        steps0[slot] = h
    slots = [slot for slot, _ in vars_orders]
    degs = np.array([deg for _, deg in vars_orders])
    combos = list(itertools.product(*(oracle._STENCILS[deg] for _, deg in vars_orders)))
    offsets = np.array([[o for o, _ in c] for c in combos], dtype=float)
    w = np.array([[w for _, w in c] for c in combos])
    h = (steps0 / 2.0 ** np.arange(levels)[:, None])[:, None, slots]  # (levels, 1, v)
    z = np.tile(at, (levels, len(combos), 1))
    z[:, :, slots] += offsets * h
    return z.reshape(-1, len(at)).T, np.prod(w / h**degs, axis=-1).ravel()


@pytest.mark.parametrize(
    "cfg", [FDConfig(), FDConfig(step=1e-3), FDConfig(step=1e-3, richardson=False)]
)
def test_stencil_of_all_orders_matches_one_order_at_a_time(cfg):
    # the same points and weights, bit for bit, as stencils built per order
    rng = np.random.default_rng(5)
    orders = tuple(oracle._full_order(o, 8) for o in POLY_ORDERS) + tuple(
        oracle.multi(*slots) for n in (1, 2, 3)
        for slots in itertools.combinations_with_replacement(range(8), n)
    )
    for _ in range(4):
        at = rng.normal(size=8)
        room = np.where(rng.random(8) < 0.5, np.inf, rng.random(8) + 0.01)
        points, weights, _ = oracle._stencil(at, orders, cfg, room)
        ref = [_stencil_per_order(at, o, cfg, room) for o in orders]
        assert points.tobytes() == np.concatenate([p for p, _ in ref], axis=1).tobytes()
        assert weights.tobytes() == np.concatenate([w for _, w in ref]).tobytes()

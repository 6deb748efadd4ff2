import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finsler4 import frame, geometry, jets, oracle
from finsler4.jets import (
    CapMismatch,
    CapTooSmall,
    DegreeCaps,
    DomainViolation,
    JetScalar,
    OrderExceedsCaps,
    const,
    derivative_jet,
    derivative_tensor,
    multi,
    partial_extract,
    restrict,
    variable,
)

CAPS = DegreeCaps(1, 4)


def test_variable_jet_y_slot():
    j = variable(4, 3.0, CAPS)
    assert j.base == 3.0
    assert partial_extract(j, multi(4)) == 1.0
    assert partial_extract(j, multi(5)) == 0.0


def test_variable_jet_x_slot():
    j = variable(0, -1.0, CAPS)
    assert j.base == -1.0
    assert partial_extract(j, multi(0)) == 1.0


def test_variable_slot_out_of_range():
    with pytest.raises(OrderExceedsCaps):
        variable(9, 0.0, CAPS)


@pytest.mark.parametrize("slot", [4.5, 4.0, "4", -1, 8])
def test_a_slot_must_be_an_integer_in_0_to_7(slot):
    with pytest.raises(OrderExceedsCaps):
        multi(slot)
    with pytest.raises(OrderExceedsCaps):
        variable(slot, 1.0, DegreeCaps(1, 2))


def test_a_bool_slot_reads_as_its_int():
    # NumPy would read a bool index as a mask
    caps = DegreeCaps(1, 2)
    got, want = variable(True, 1.0, caps), variable(1, 1.0, caps)
    assert got.c.tobytes() == want.c.tobytes() and got.deg == want.deg
    assert multi(True) == multi(1)


def test_variable_cap_too_small():
    with pytest.raises(CapTooSmall):
        variable(0, 1.0, DegreeCaps(0, 4))


def test_square_of_coordinate():
    j = variable(4, 3.0, CAPS)
    sq = j * j
    assert partial_extract(sq, multi(4)) == pytest.approx(6.0, abs=1e-14)
    assert partial_extract(sq, multi(4, 4)) == pytest.approx(2.0, abs=1e-14)


def test_cube_third_derivative():
    j = variable(4, 2.0, CAPS)
    cube = j * j * j
    assert partial_extract(cube, multi(4, 4, 4)) == pytest.approx(6.0, abs=1e-12)


def test_bilinear_mixed_partial():
    f = variable(0, 1.0, CAPS) * variable(4, 1.0, CAPS)
    assert partial_extract(f, multi(0, 4)) == pytest.approx(1.0, abs=1e-14)


def test_exp_first_partial_matches_closed_form_and_fd():
    j = variable(0, 0.2, CAPS)
    e = jets.exp(j)
    d = partial_extract(e, multi(0))
    assert d == pytest.approx(math.exp(0.2), rel=1e-12)
    fd = oracle.fd_partials(lambda z: np.exp(z[0]), np.array([0.2] + [0.0] * 7), [multi(0)])[0]
    assert d == pytest.approx(fd, abs=1e-9)


def test_quartic_norm_first_partial():
    # f = (sum y_i^4)^(1/2) at y = ones: df/dy1 = 2 y1^3 / sqrt(Q) with Q = 4
    ys = [variable(4 + i, 1.0, CAPS) for i in range(4)]
    f = jets.sqrt(sum(jets.power(v, 4) for v in ys))
    assert partial_extract(f, multi(4)) == pytest.approx(1.0, rel=1e-12)
    fd = oracle.fd_partials(
        lambda z: np.sqrt(sum(v**4 for v in z[4:])),
        np.array([0.0] * 4 + [1.0] * 4),
        [multi(4)],
    )[0]
    assert partial_extract(f, multi(4)) == pytest.approx(fd, abs=1e-9)


def test_division_by_zero_base():
    with pytest.raises(DomainViolation):
        const(1.0, CAPS) / (variable(4, 1.0, CAPS) - 1.0)


def test_log_sqrt_domain():
    neg = const(-1.0, CAPS)
    with pytest.raises(DomainViolation):
        jets.log(neg)
    with pytest.raises(DomainViolation):
        jets.sqrt(neg)
    with pytest.raises(DomainViolation):
        jets.power(neg, 0.5)
    with pytest.raises(DomainViolation):
        jets.power(0.0, -1)


def test_zero_exponent_gives_the_constant_one():
    # f^0 is the constant 1 with degree bound (0, 0), for a lone jet (of zero
    # base too) and for a stack; a number gives 1.0, 0^0 included
    caps = DegreeCaps(1, 3)
    rows = np.random.default_rng(3).uniform(-1.0, 1.0, (3, caps.tables.n))
    rows[:, 0] = [0.7, -1.3, 0.0]
    for f in (variable(4, 0.0, caps), variable(1, 2.5, caps), JetScalar(caps, rows)):
        one = jets.power(f, 0)
        want = np.zeros(f.c.shape)
        want[..., 0] = 1.0
        assert one.deg == (0, 0)
        assert one.c.tobytes() == want.tobytes()
    for b in (0.0, -1.3, 2.5):
        assert jets.power(b, 0) == 1.0
    assert np.array_equal(jets.power(np.array([0.0, -1.3, 2.5]), 0), np.ones(3))


def test_integer_power_allows_negative_base():
    j = variable(0, -2.0, CAPS)
    sq = jets.power(j, 2)
    assert sq.base == 4.0
    assert partial_extract(sq, multi(0)) == pytest.approx(-4.0, abs=1e-14)


def test_cap_mismatch():
    a = variable(4, 1.0, DegreeCaps(1, 4))
    b = variable(4, 1.0, DegreeCaps(1, 2))
    with pytest.raises(CapMismatch):
        _ = a + b


def test_partial_extract_order_exceeds_caps():
    j = variable(4, 1.0, DegreeCaps(1, 2))
    with pytest.raises(OrderExceedsCaps):
        partial_extract(j, multi(4, 4, 4))


def test_restrict_and_derivative_jet():
    j = variable(4, 0.7, CAPS)
    f = jets.exp(j * j)
    r = restrict(f, DegreeCaps(1, 2))
    assert r.base == f.base
    assert partial_extract(r, multi(4, 4)) == partial_extract(f, multi(4, 4))
    with pytest.raises(CapMismatch):
        restrict(r, CAPS)
    df = derivative_jet(f, multi(4))
    assert df.caps == DegreeCaps(1, 3)
    for order in ((), (4,), (4, 4), (4, 4, 4)):
        assert partial_extract(df, multi(*order)) == pytest.approx(
            partial_extract(f, multi(4, *order)), rel=1e-12
        )


MASTER = DegreeCaps(1, 5)


def _generic_master_jet():
    # exp * sin of two unrelated linear forms: no two mixed partials coincide
    vs = [variable(i, 0.1 * i + 0.3, MASTER) for i in range(8)]
    a = sum(((-1) ** i * (0.2 + 0.05 * i)) * v for i, v in enumerate(vs))
    b = sum((0.4 - 0.07 * i) * v for i, v in enumerate(vs))
    return jets.exp(a) * jets.sin(b) + vs[0] * vs[4] * vs[5] * vs[5]


def _order(slots, nx):
    return multi(*slots[:nx], *(4 + k for k in slots[nx:]))


@pytest.mark.parametrize("nx,ny", [(nx, ny) for nx in range(2) for ny in range(6)])
def test_derivative_tensor_matches_per_entry_extraction(nx, ny):
    f = _generic_master_jet()
    entries = list(itertools.product(range(4), repeat=nx + ny))
    shape = (4,) * (nx + ny)
    want = np.array([partial_extract(f, _order(s, nx)) for s in entries]).reshape(shape)
    got = derivative_tensor(f, nx, ny)
    assert got.dtype == float and np.array_equal(got, want)
    # any permutation of the y axes leaves the tensor unchanged
    for perm in itertools.permutations(range(nx, nx + ny)):
        assert np.array_equal(got, got.transpose(tuple(range(nx)) + perm))
    for caps in (DegreeCaps(1, 1), DegreeCaps(0, 3)):
        if caps.x_max > 1 - nx or caps.y_max > 5 - ny:
            continue
        tensor = derivative_tensor(f, nx, ny, caps)
        for s in entries:
            ref = restrict(derivative_jet(f, _order(s, nx)), caps)
            assert tensor.shape == shape + (ref.c.size,)
            assert np.array_equal(tensor[s], ref.c)


@pytest.mark.parametrize("caps", [DegreeCaps(1, 1), DegreeCaps(0, 3)])
@pytest.mark.parametrize("spec", ["ij,j->i", "ijk,jk->i", "i,->i", "i,i->", "ij,aj->ai"])
def test_contract_matches_looped_jet_products(caps, spec):
    rng = np.random.default_rng(31)
    n = const(0.0, caps).c.size
    ins, out = spec.split("->")
    left, right = ins.split(",")
    a = rng.normal(size=(4,) * len(left) + (n,))
    b = rng.normal(size=(4,) * len(right) + (n,))
    got = jets.contract(spec, a, b, caps)
    assert got.shape == (4,) * len(out) + (n,)
    letters = sorted(set(left + right))
    want = np.zeros_like(got)
    for vals in itertools.product(range(4), repeat=len(letters)):
        at = dict(zip(letters, vals))
        term = JetScalar(caps, a[tuple(at[c] for c in left)]) * JetScalar(
            caps, b[tuple(at[c] for c in right)]
        )
        want[tuple(at[c] for c in out)] += term.c
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


# -- the jet-tensor kernel: summation order, stacking and the Neumann solve ----

# the rings the program contracts in, and a deeper one
_KERNEL_CAPS = (frame.FRAME_CAPS, DegreeCaps(0, 3), DegreeCaps(1, 3))
# every spec the program contracts with, and two with two contracted labels
_KERNEL_SPECS = (
    "ij,j->i", "ij,jk->ik", "ijk,jk->i", "i,->i", "i,i->", "k,kr->r", "j,aj->a",
    "a,ai->i", "ij,aj->ai", "ijk,si->sjk", "sjk,sj->sk", "sk,sk->s", "s,->s",
    "ijk,ijk->", "ij,ijk->k",
)


def _reference_contract(spec, a, b, caps):
    """contract written out: per pair, the sum over the contracted index
    tuples in row-major order of their labels (as they first appear in
    spec), added left to right; then each monomial's pairs added left to
    right in table order."""
    t = caps.tables
    ins, out = spec.split("->")
    left, right = ins.split(",")
    summed = [c for c in dict.fromkeys(left + right) if c not in out]
    pairs = np.zeros((4,) * len(out) + (len(t.mul_i),))
    for out_idx in itertools.product(range(4), repeat=len(out)):
        for sum_idx in itertools.product(range(4), repeat=len(summed)):
            at = dict(zip(out, out_idx)) | dict(zip(summed, sum_idx))
            pairs[out_idx] += (a[tuple(at[c] for c in left)][t.mul_i]
                               * b[tuple(at[c] for c in right)][t.mul_j])
    coeffs = np.zeros(pairs.shape[:-1] + (t.n,))
    for p, k in enumerate(t.mul_k):
        coeffs[..., k] += pairs[..., p]
    return coeffs


def _operands(data, spec, caps, stack=()):
    """Random coefficient arrays for the two operands of spec, each with
    the leading shape ``stack``."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = data.draw(st.floats(0.1, 4.0))
    return [rng.normal(size=stack + (4,) * len(labels) + (caps.tables.n,)) * scale
            for labels in spec.split("->")[0].split(",")]


@settings(max_examples=40, deadline=None)
@given(caps=st.sampled_from(_KERNEL_CAPS), spec=st.sampled_from(_KERNEL_SPECS), data=st.data())
def test_contract_sums_each_pair_left_to_right_in_index_order(caps, spec, data):
    a, b = _operands(data, spec, caps)
    got = jets.contract(spec, a, b, caps)
    assert got.tobytes() == _reference_contract(spec, a, b, caps).tobytes()


@settings(max_examples=40, deadline=None)
@given(caps=st.sampled_from(_KERNEL_CAPS), spec=st.sampled_from(_KERNEL_SPECS),
       size=st.sampled_from((1, 2, 16)), data=st.data())
def test_contract_over_a_leading_stack_axis_equals_each_member(caps, spec, size, data):
    a, b = _operands(data, spec, caps, (size,))
    ins, out = spec.split("->")
    left, right = ins.split(",")
    got = jets.contract(f"z{left},z{right}->z{out}", a, b, caps)
    for k in range(size):
        assert got[k].tobytes() == jets.contract(spec, a[k], b[k], caps).tobytes()


@pytest.mark.parametrize("caps", [DegreeCaps(1, 1), DegreeCaps(0, 3)])
def test_inverse_times_matrix_is_the_identity_jet(caps):
    rng = np.random.default_rng(37)
    n = const(0.0, caps).c.size
    a = rng.normal(size=(4, 4))
    g = rng.normal(size=(4, 4, n)) * 0.3
    g[..., 0] = a @ a.T + 4 * np.eye(4)
    eye = jets.identity(4, caps)
    inv = jets.solve(g, np.linalg.inv(g[..., 0]), eye, caps)
    assert np.max(np.abs(jets.contract("ij,jk->ik", inv, g, caps) - eye)) <= 1e-15
    assert np.max(np.abs(jets.contract("ij,jk->ik", g, inv, caps) - eye)) <= 1e-15


@settings(max_examples=30, deadline=None)
@given(caps=st.sampled_from(_KERNEL_CAPS), rhs_ndim=st.sampled_from((1, 2)),
       seed=st.integers(0, 2**32 - 1))
# a draw whose max|inv m - I| of 1.33e-15 is round-off, six ulp of 1
@example(caps=DegreeCaps(1, 1, 1), rhs_ndim=1, seed=798440)
def test_solve_equals_the_inverse_contracted_with_the_right_side(caps, rhs_ndim, seed):
    rng = np.random.default_rng(seed)
    n = caps.tables.n
    a = rng.normal(size=(4, 4))
    m = rng.normal(size=(4, 4, n)) * 0.3
    m[..., 0] = a @ a.T + 4 * np.eye(4)
    m0_inv = np.linalg.inv(m[..., 0])
    rhs = rng.normal(size=(4,) * rhs_ndim + (n,))
    eye = jets.identity(4, caps)
    inv = jets.solve(m, m0_inv, eye, caps)
    # solve on the identity is a two-sided inverse in the ring, up to the
    # rounding of the products: each coefficient of a product sums rounded
    # terms, so its error scales with the size of the factors, the largest
    # coefficient of the ring product of their absolute values, and not
    # with 1 (fresh seeds stay below a sixth of this bound)
    for left, right in ((inv, m), (m, inv)):
        size = jets.contract("ij,jk->ik", np.abs(left), np.abs(right), caps).max()
        residual = np.max(np.abs(jets.contract("ij,jk->ik", left, right, caps) - eye))
        assert residual <= 16 * np.finfo(float).eps * size
    spec = "ij,j->i" if rhs_ndim == 1 else "ij,jk->ik"
    want = jets.contract(spec, inv, rhs, caps)
    got = jets.solve(m, m0_inv, rhs, caps)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_derivative_tensor_rejects_orders_and_caps_beyond_the_jet():
    f = _generic_master_jet()
    with pytest.raises(OrderExceedsCaps):
        derivative_tensor(f, 2, 0)
    with pytest.raises(OrderExceedsCaps):
        derivative_tensor(f, 0, 6)
    with pytest.raises(CapMismatch):
        derivative_tensor(f, 0, 3, DegreeCaps(1, 3))
    with pytest.raises(CapMismatch):
        derivative_tensor(f, 1, 0, DegreeCaps(1, 0))


def _all_pairs_product_table(tables):
    # reference: test every monomial pair and keep those within the caps
    caps = tables.caps
    monos = [tuple(m) for m in tables.exps.tolist()]
    index = {m: i for i, m in enumerate(monos)}
    ii, jj, kk = [], [], []
    for i, a in enumerate(monos):
        for j, b in enumerate(monos):
            s = tuple(p + q for p, q in zip(a, b))
            if (sum(s[:4]) <= caps.x_max and sum(s[4:]) <= caps.y_max
                    and sum(s) <= caps.total_max):
                ii.append(i)
                jj.append(j)
                kk.append(index[s])
    return ii, jj, kk


@pytest.mark.parametrize("caps", [(1, 1), (0, 3), (1, 2), (2, 2), (1, 3), (1, 1, 1), (1, 3, 2),
                                  (2, 2, 3), (1, 5, 5)])
def test_product_table_matches_all_pairs_reference(caps):
    # the order matters too: it fixes the summation order of every product
    tables = jets._Tables(DegreeCaps(*caps))
    for got, want in zip((tables.mul_i, tables.mul_j, tables.mul_k),
                         _all_pairs_product_table(tables)):
        assert np.array_equal(got, np.array(want, dtype=np.intp))


def test_master_caps_table_size():
    tables = jets._tables(DegreeCaps(1, 5))
    assert tables.n == 630
    assert len(tables.mul_i) == 11583
    # the rings the program uses, cut to the total degree their readers need
    for caps, n, pairs in ((geometry.MASTER_CAPS, 406, 5247), (frame.FRAME_CAPS, 9, 17)):
        cut, full = caps.tables, DegreeCaps(caps.x_max, caps.y_max).tables
        assert (cut.n, len(cut.mul_i)) == (n, pairs)
        # the kept monomials are a prefix of the uncut ring, index for index
        assert np.array_equal(cut.exps, full.exps[:n])
        # one tables object per caps value, held on every equal caps
        assert DegreeCaps(caps.x_max, caps.y_max, caps.total_max).tables is cut


# -- tables pinned against a looped reference ----------------------------------

# the rings the program builds, then those perfbench times (corpus.TABLE_CAPS)
_PROGRAM_RINGS = ((1, 5, 5), (1, 1, 1), (0, 3), (1, 0, 1), (0, 0))
_BENCH_RINGS = ((1, 5), (1, 3), (0, 5), (0, 4), (0, 3), (1, 2), (1, 1), (1, 0))

# (source ring, destination ring, (nx, ny)) of every derivative read the
# program makes
_READ_MAPS = (
    [((1, 5, 5), (0, 0), o) for o in ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3))]
    + [((1, 5, 5), (0, 3), o) for o in ((0, 2), (1, 0), (1, 1))]
    + [((1, 5, 5), (1, 1, 1), o) for o in ((0, 0), (0, 2), (0, 3))]
    + [((0, 3), (0, 0), o) for o in ((0, 1), (0, 3))]
    + [((1, 1, 1), (0, 0), o) for o in ((0, 1), (1, 0))]
    + [((1, 0, 1), (0, 0), (1, 0))]
)


def _ref_ring(caps):
    """Monomials as exponent tuples, sorted by total degree, then by tuple,
    with a dict index."""
    caps = DegreeCaps(*caps)

    def group(cap):
        return [m for m in itertools.product(range(cap + 1), repeat=4) if sum(m) <= cap]

    monos = sorted((x + y for x in group(caps.x_max) for y in group(caps.y_max)
                    if sum(x) + sum(y) <= caps.total_max), key=lambda m: (sum(m), m))
    return caps, monos, {m: i for i, m in enumerate(monos)}


def _ref_tables(caps):
    caps, monos, index = _ref_ring(caps)
    degs = [(sum(m[:4]), sum(m[4:])) for m in monos]
    ii, jj, kk = [], [], []
    for i, a in enumerate(monos):
        for j, b in enumerate(monos):
            if (degs[i][0] + degs[j][0] <= caps.x_max and degs[i][1] + degs[j][1] <= caps.y_max
                    and sum(degs[i]) + sum(degs[j]) <= caps.total_max):
                ii.append(i)
                jj.append(j)
                kk.append(index[tuple(p + q for p, q in zip(a, b))])
    return len(monos), ii, jj, kk, degs


@pytest.mark.parametrize("caps", _PROGRAM_RINGS + _BENCH_RINGS)
def test_product_tables_and_degrees_match_a_looped_reference(caps):
    t = DegreeCaps(*caps).tables
    n, ii, jj, kk, degs = _ref_tables(caps)
    assert t.n == n
    for got, want in ((t.mul_i, ii), (t.mul_j, jj), (t.mul_k, kk), (t.degs, degs)):
        assert got.dtype == np.intp
        assert np.array_equal(got, np.array(want, dtype=np.intp).reshape(got.shape))


@pytest.mark.parametrize("src,dst,order", _READ_MAPS)
def test_derivative_read_maps_match_a_looped_reference(src, dst, order):
    # a probe of ones reads the scales, and 1..n the source index times them
    nx, ny = order
    src_caps, _, src_index = _ref_ring(src)
    dst_caps, dst_monos, _ = _ref_ring(dst)
    idx, scale = [], []
    for s in itertools.product(range(4), repeat=nx + ny):
        beta = multi(*s[:nx], *(4 + k for k in s[nx:]))
        for alpha in dst_monos:
            idx.append(src_index[tuple(a + b for a, b in zip(alpha, beta))])
            scale.append(float(math.prod(math.factorial(a + b) // math.factorial(a)
                                         for a, b in zip(alpha, beta))))
    shape = (4,) * (nx + ny) + ((len(dst_monos),) if dst != (0, 0) else ())
    want_scale = np.array(scale).reshape(shape)
    want_idx = (np.array(idx) + 1.0).reshape(shape) * want_scale
    n = src_caps.tables.n
    for probe, want in ((np.ones(n), want_scale), (np.arange(n) + 1.0, want_idx)):
        got = derivative_tensor(probe, nx, ny, dst_caps, src_caps)
        assert got.shape == shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("caps", _PROGRAM_RINGS + _BENCH_RINGS)
def test_coordinate_jets_match_a_looped_reference(caps):
    caps, monos, index = _ref_ring(caps)
    for slot in range(8):
        if min(caps.x_max if slot < 4 else caps.y_max, caps.total_max) < 1:
            continue
        want = np.zeros(len(monos))
        want[0] = 0.25 * slot - 0.5
        want[index[multi(slot)]] = 1.0
        got = variable(slot, 0.25 * slot - 0.5, caps)
        assert got.c.tobytes() == want.tobytes()
        assert got.deg == ((0, 1) if slot >= 4 else (1, 0))


# -- property tests ----------------------------------------------------------

_SMALL_CAPS = DegreeCaps(1, 3)
_N_SMALL = len(jets._tables(_SMALL_CAPS).exps)

coeff_arrays = st.lists(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    min_size=_N_SMALL,
    max_size=_N_SMALL,
)


def _poly_jet(coeffs) -> JetScalar:
    # any coefficient array is the exact jet of the polynomial it denotes
    return JetScalar(_SMALL_CAPS, np.array(coeffs))


@given(coeff_arrays, coeff_arrays)
@settings(max_examples=60, deadline=None)
def test_product_rule_leibniz(ca, cb):
    f = _poly_jet(ca)
    g = _poly_jet(cb)
    fg = f * g
    tables = jets._tables(_SMALL_CAPS)
    for alpha in [(0, 0, 0, 0, 2, 1, 0, 0), (1, 0, 0, 0, 0, 1, 1, 0), (0, 0, 0, 0, 3, 0, 0, 0)]:
        expected = 0.0
        for beta in map(tuple, tables.exps.tolist()):
            if any(b > a for b, a in zip(beta, alpha)):
                continue
            gamma = tuple(a - b for a, b in zip(alpha, beta))
            coeff = math.prod(math.comb(a, b) for a, b in zip(alpha, beta))
            expected += coeff * partial_extract(f, beta) * partial_extract(g, gamma)
        got = partial_extract(fg, alpha)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


@given(coeff_arrays)
@settings(max_examples=60, deadline=None)
def test_chain_rule_exp_log_roundtrip(ca):
    f = _poly_jet(ca)
    f = f - f.base + 2.0  # force a safely positive base
    back = jets.exp(jets.log(f))
    assert np.allclose(back.c, f.c, rtol=1e-10, atol=1e-10)


def test_elementary_functions_match_finite_differences():
    # first and second partials of fn(a*z + b) vs central differences
    rng = np.random.default_rng(42)
    funcs = {
        "exp": (np.exp, lambda: rng.uniform(-1, 1)),
        "log": (np.log, lambda: rng.uniform(0.5, 3.0)),
        "sqrt": (np.sqrt, lambda: rng.uniform(0.5, 3.0)),
        "sin": (np.sin, lambda: rng.uniform(-2, 2)),
        "cos": (np.cos, lambda: rng.uniform(-2, 2)),
        "recip": (lambda t: 1.0 / t, lambda: rng.uniform(0.5, 3.0)),
    }
    jet_funcs = {
        "exp": jets.exp, "log": jets.log, "sqrt": jets.sqrt,
        "sin": jets.sin, "cos": jets.cos, "recip": lambda f: 1.0 / f,
    }
    for name, (fn, draw_base) in funcs.items():
        for _ in range(100):
            a = rng.uniform(0.3, 1.5)
            t0 = draw_base()
            z0 = t0 / a
            slot = int(rng.integers(0, 8))
            j = jet_funcs[name](variable(slot, z0, CAPS) * a)
            point = np.zeros(8)
            point[slot] = z0

            def func(z, fn=fn, a=a, slot=slot):
                return fn(a * z[slot])

            for order in (multi(slot), multi(slot, slot)):
                if sum(order[:4]) > 1:
                    continue
                got = partial_extract(j, order)
                want = oracle.fd_partials(func, point, [order])[0]
                assert got == pytest.approx(want, rel=1e-8, abs=1e-8), (name, order)


def test_ring_sum_adds_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so only the left-to-right order gives 0
    assert jets.ring_sum([1e16, 1.0, -1e16]) == 0.0
    caps = DegreeCaps(1, 1)
    terms = [jets.variable(i, 0.5 * i, caps) for i in range(8)]
    want = terms[0]
    for t in terms[1:]:
        want = want + t
    got = jets.ring_sum(t for t in terms)
    assert np.array_equal(got.c, want.c)


def test_every_error_class_derives_from_the_root():
    import finsler4
    from finsler4 import conformal, exprdsl, frame, geometry, metrics

    roots = (jets.SpecError, jets.DomainViolation, jets.CapMismatch, jets.CapTooSmall,
             jets.OrderExceedsCaps, exprdsl.ExprError, metrics.SpecSchemaError,
             geometry.SingularMetric, frame.FrameError, conformal.ExtractionUnreliable,
             conformal.MissingSigma, oracle.StencilLeavesDomain, jets.InvalidArgument)
    for cls in roots:
        assert issubclass(cls, finsler4.Finsler4Error), cls
    assert finsler4.Finsler4Error is jets.Finsler4Error
    # bad library arguments stay catchable as ValueError too
    assert issubclass(jets.InvalidArgument, ValueError)
    assert finsler4.InvalidArgument is jets.InvalidArgument
    assert finsler4.SpecError is jets.SpecError


def test_negative_degree_caps_are_invalid_arguments():
    with pytest.raises(jets.InvalidArgument):
        DegreeCaps(-1, 2)
    with pytest.raises(ValueError):
        DegreeCaps(1, -1)


@pytest.mark.parametrize("total", [-1, 7])
def test_total_degree_cap_outside_zero_to_the_group_sum_is_invalid(total):
    with pytest.raises(jets.InvalidArgument):
        DegreeCaps(1, 5, total)
    assert DegreeCaps(1, 5).total_max == 6
    assert DegreeCaps(1, 5, 6) == DegreeCaps(1, 5)


def test_reads_past_the_total_degree_cap_are_rejected():
    caps = frame.FRAME_CAPS
    f = jets.exp(variable(0, 0.2, caps) * variable(4, 1.5, caps))
    # (1, 1) fits each group's cap but not the total of 1
    with pytest.raises(OrderExceedsCaps):
        derivative_tensor(f.c, 1, 1, f_caps=caps)
    with pytest.raises(OrderExceedsCaps):
        derivative_jet(f, multi(0, 4))
    with pytest.raises(OrderExceedsCaps):
        partial_extract(f, multi(0, 4))
    with pytest.raises(CapMismatch):
        restrict(f, DegreeCaps(1, 1))
    master = variable(4, 1.5, geometry.MASTER_CAPS) ** 3
    with pytest.raises(OrderExceedsCaps):
        derivative_tensor(master, 1, 5)
    # (0, 2) leaves x-degree 1, y-degree 3 and total 3
    assert derivative_tensor(master, 0, 2, DegreeCaps(0, 3)).shape == (4, 4, 35)
    with pytest.raises(CapMismatch):
        derivative_tensor(master, 0, 2, DegreeCaps(1, 3))
    # (0, 4) leaves total 1: room for the frame ring, not for the uncut (1, 1)
    assert derivative_tensor(master, 0, 4, caps).shape == (4,) * 4 + (9,)
    with pytest.raises(CapMismatch):
        derivative_tensor(master, 0, 4, DegreeCaps(1, 1))
    # the caps a derivative leaves carry the total budget it leaves
    assert derivative_jet(master, multi(4, 4)).caps == DegreeCaps(1, 3, 3)
    assert derivative_jet(master, multi(0)).caps == DegreeCaps(0, 4)
    with pytest.raises(CapTooSmall):
        variable(0, 0.2, DegreeCaps(1, 1, 0))


# the last two name a slot that is not an integer
@pytest.mark.parametrize("order", [(0, 0, 0, 0, 2.7, 0, 0, 0), {4: 2.7}, {4: 0.5},
                                   (0, 0, 0, 0, float("nan"), 0, 0, 0), {4.5: 2}, {"4": 2}])
def test_orders_must_be_whole_degrees(order):
    # int() would truncate 2.7 to the second partial without a word
    f = variable(4, 2.0, DegreeCaps(0, 3)) ** 3
    with pytest.raises(OrderExceedsCaps):
        partial_extract(f, order)
    with pytest.raises(OrderExceedsCaps):
        derivative_jet(f, order)


def test_whole_float_degrees_read_like_ints():
    f = variable(4, 2.0, DegreeCaps(0, 3)) ** 3
    assert partial_extract(f, {4: 2.0}) == partial_extract(f, (0, 0, 0, 0, 2, 0, 0, 0)) == 12.0


# -- degree bounds -------------------------------------------------------------

_BOUND_CAPS = (DegreeCaps(1, 5), DegreeCaps(1, 1), DegreeCaps(0, 3))
_VALUES = st.floats(min_value=-3.0, max_value=3.0)
_OPS = {
    "add": lambda a, b, r: a + b,
    "sub": lambda a, b, r: a - b,
    "mul": lambda a, b, r: _checked_product(a, b),
    "neg": lambda a, b, r: -a,
    "scale": lambda a, b, r: a * r,
    "div": lambda a, b, r: a / (r or 1.0),
    "exp": lambda a, b, r: jets.exp(a),
    "recip": lambda a, b, r: 1.0 / a,
}


def _outside_bound(f: JetScalar) -> np.ndarray:
    return np.any(jets._tables(f.caps).degs > f.deg, axis=1)


def _checked_product(a: JetScalar, b: JetScalar) -> JetScalar:
    got = a * b
    # the same coefficients under the default bound use the full table
    want = JetScalar(a.caps, a.c) * JetScalar(b.caps, b.c)
    assert got.deg == (min(a.deg[0] + b.deg[0], a.caps.x_max),
                       min(a.deg[1] + b.deg[1], a.caps.y_max))
    if np.all(np.isfinite(a.c)) and np.all(np.isfinite(b.c)):
        assert got.c.tobytes() == want.c.tobytes()
    else:
        # the full table also forms inf * 0 = nan at pairs the bounds rule
        # out; every coefficient it keeps finite is the same, and a
        # non-finite operand still makes the product non-finite
        finite = np.isfinite(want.c)
        assert got.c[finite].tobytes() == want.c[finite].tobytes()
        assert np.all(np.isfinite(got.c)) == np.all(finite)
    return got


@pytest.mark.parametrize("inf_leaf", [False, True])
@given(
    st.sampled_from(_BOUND_CAPS),
    st.lists(st.tuples(st.integers(0, 7), _VALUES, st.booleans()), min_size=2, max_size=4),
    # products weighted up: they are what the bounds change
    st.lists(st.tuples(st.sampled_from(sorted(_OPS) + ["mul"] * 5), st.integers(0, 99),
                       st.integers(0, 99), _VALUES), max_size=10),
)
@settings(max_examples=150, deadline=None)
def test_bounded_products_match_the_full_table(inf_leaf, caps, leaves, ops):
    slots = [s for s in range(8) if (caps.y_max if s >= 4 else caps.x_max) >= 1]
    pool = [variable(slots[k % len(slots)], v, caps) if is_var else const(v, caps)
            for k, v, is_var in leaves]
    if inf_leaf:
        pool[0].c[0] = math.inf
    for op, i, j, r in ops:
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        try:
            with np.errstate(all="ignore"):  # inf operands make nan on purpose
                out = _OPS[op](a, b, r)
        except (DomainViolation, ArithmeticError):  # zero base, math overflow
            continue
        pool.append(out)
    for f in pool:
        assert f.deg[0] <= caps.x_max and f.deg[1] <= caps.y_max
        assert np.all(f.c[_outside_bound(f)] == 0.0)


def test_degree_bounds_of_constants_variables_and_functions():
    caps = DegreeCaps(1, 5)
    assert const(2.0, caps).deg == (0, 0)
    assert variable(1, 0.3, caps).deg == (1, 0)
    assert variable(6, 0.3, caps).deg == (0, 1)
    assert JetScalar(caps, const(2.0, caps).c).deg == (1, 5)
    q = variable(4, 1.0, caps) ** 4 + variable(5, 2.0, caps) ** 4
    assert q.deg == (0, 4)
    # a series in q stays free of x; a factor e^(0.2 x1) stays free of y
    assert jets.power(q, 0.25).deg == (0, 5)
    assert jets.exp(variable(0, 0.1, caps) * 0.2).deg == (1, 0)
    # the full product table is the entry for the caps themselves
    t = jets._tables(caps)
    assert all(a is b for a, b in zip(t.products((1, 5), (1, 5)), (t.mul_i, t.mul_j, t.mul_k)))
    assert t.products((0, 4), (1, 2))[3] == (1, 5)


# -- rings cut by total degree -----------------------------------------------

_CUT_OPS = {
    "mul": lambda a, b, r: a * b,
    "add": lambda a, b, r: a + b,
    "exp": lambda a, b, r: jets.exp(a),
    "log": lambda a, b, r: jets.log(a),
    "power": lambda a, b, r: jets.power(a, r),
    "recip": lambda a, b, r: jets.recip(a),
}


@given(
    st.sampled_from([DegreeCaps(1, 5, 5), DegreeCaps(1, 1, 1)]),
    st.lists(st.tuples(st.integers(0, 7), _VALUES, st.booleans()), min_size=2, max_size=4),
    st.lists(st.tuples(st.sampled_from(sorted(_CUT_OPS)), st.integers(0, 99),
                       st.integers(0, 99), st.sampled_from([2, 3, -1, 0.5, -0.25, 1.5])),
             max_size=10),
)
@settings(max_examples=150, deadline=None)
def test_rings_cut_by_total_degree_keep_every_coefficient(caps, leaves, ops):
    # a coefficient of total degree d reads only factor coefficients of degree
    # <= d: the cut ring keeps a prefix of the uncut ring's monomials, and every
    # kept coefficient comes out bit for bit as in the uncut ring
    full_caps = DegreeCaps(caps.x_max, caps.y_max)
    n = caps.tables.n
    pool = [(variable(k, v, caps), variable(k, v, full_caps)) if is_var
            else (const(v, caps), const(v, full_caps)) for k, v, is_var in leaves]
    for op, i, j, r in ops:
        (a, a_full), (b, b_full) = pool[i % len(pool)], pool[j % len(pool)]
        try:
            with np.errstate(all="ignore"):
                out_full = _CUT_OPS[op](a_full, b_full, r)
        except (DomainViolation, ArithmeticError):  # zero base, math overflow
            continue
        # a series coefficient past the cut can overflow (and make inf * 0 =
        # nan) in the uncut ring alone; the cut ring never forms it
        if not np.all(np.isfinite(out_full.c)):
            continue
        out = _CUT_OPS[op](a, b, r)
        assert out.c.tobytes() == out_full.c[:n].tobytes()
        pool.append((out, out_full))


_STACK_UNARY = {
    "exp": jets.exp,
    "log": jets.log,
    "sin": jets.sin,
    "cos": jets.cos,
    "sqrt": jets.sqrt,
    "recip": jets.recip,
    "square": lambda f: jets.power(f, 2),
    "cube": lambda f: f**3,
    "inverse_square": lambda f: jets.power(f, -2),
    "rsqrt": lambda f: jets.power(f, -0.5),
    "power_1.5": lambda f: jets.power(f, 1.5),
    "constant_over": lambda f: 2.0 / f,
}
_STACK_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@pytest.mark.parametrize(
    "caps", [frame.FRAME_CAPS, DegreeCaps(1, 3), geometry.MASTER_CAPS],
    ids=["frame", "1_3", "master"],
)
def test_stacked_series_rows_equal_their_jet_scalar_calls(caps):
    # every operation on a (3, n) JetScalar stack: each row bit for bit as the
    # same operation on that row alone, for stacks with different degree bounds
    t = caps.tables
    rows = np.random.default_rng(7).uniform(-1.0, 1.0, (3, t.n))
    rows[:, 0] = [0.7, 1.3, 2.9]
    x_free = rows[::-1].copy()
    x_free[:, t.degs[:, 0] > 0] = 0.0
    full = JetScalar(caps, rows)
    free = JetScalar(caps, x_free, (0, caps.y_max))
    cases = [(name, fn, (f,)) for name, fn in _STACK_UNARY.items() for f in (full, free)]
    cases += [(name, fn, pair) for name, fn in _STACK_BINARY.items()
              for pair in ((full, free), (free, full))]
    for name, fn, args in cases:
        got = fn(*args)
        assert got.c.shape == (3, t.n), name
        for i in range(3):
            want = fn(*(JetScalar(caps, f.c[i].copy(), f.deg) for f in args))
            assert got.c[i].tobytes() == want.c.tobytes(), (name, i)
            assert got.deg == want.deg, name
    rows[1, 0] = 0.0
    with pytest.raises(DomainViolation):
        jets.recip(JetScalar(caps, rows))
    with pytest.raises(DomainViolation):
        jets.power(JetScalar(caps, rows), -0.5)


@pytest.mark.parametrize(
    "caps", [DegreeCaps(1, 3), geometry.MASTER_CAPS], ids=["1_3", "master"],
)
def test_stacked_reads_equal_each_row_alone(caps):
    # restrict, derivative_jet and partial_extract of a (3, n) stack read the
    # coefficient axis: each row bit for bit as the same read of that row alone
    rows = np.random.default_rng(11).uniform(-1.0, 1.0, (3, caps.tables.n))
    reads = {
        "restrict": lambda f: restrict(f, DegreeCaps(1, 1)),
        "derivative_jet": lambda f: derivative_jet(f, multi(4)),
        "partial_extract": lambda f: partial_extract(f, multi(0, 4, 5)),
    }
    for name, read in reads.items():
        got = read(JetScalar(caps, rows))
        for i in range(3):
            want = read(JetScalar(caps, rows[i].copy()))
            if name == "partial_extract":
                # an array of shape S for a stack, a float for a lone jet
                assert type(want) is float and got.shape == (3,)
                assert got[i].tobytes() == np.float64(want).tobytes(), i
                continue
            assert got.caps == want.caps and got.c.shape == (3, want.caps.tables.n), name
            assert got.c[i].tobytes() == want.c.tobytes(), (name, i)


_ELEMENTARY = {
    "exp": jets.exp,
    "log": jets.log,
    "sqrt": jets.sqrt,
    "sin": jets.sin,
    "cos": jets.cos,
    "power_0.25": lambda f: jets.power(f, 0.25),
    "power_-0.5": lambda f: jets.power(f, -0.5),
}


@pytest.mark.parametrize("name", list(_ELEMENTARY))
def test_jet_base_value_equals_the_number_bit_for_bit(name):
    # one series per function: the base value of h(jet) is h(number)
    h = _ELEMENTARY[name]
    for b in np.random.default_rng(5).uniform(0.01, 3.0, 300).tolist():
        assert float(h(b)) == h(variable(4, b, CAPS)).base, b


# h -> (h(s f) from h(f) and s), the rescaling a scale-free series keeps
_RESCALED = {
    "log": (jets.log, lambda c, s: np.concatenate([c[:1] + math.log(s), c[1:]])),
    "recip": (jets.recip, lambda c, s: c / s),
    "power_0.25": (lambda f: jets.power(f, 0.25), lambda c, s: c * s**0.25),
    "power_-0.5": (lambda f: jets.power(f, -0.5), lambda c, s: c * s**-0.5),
    "sqrt": (jets.sqrt, lambda c, s: c * s**0.5),
}


@pytest.mark.parametrize("scale", [1e-200, 1e200])
@pytest.mark.parametrize("name", list(_RESCALED))
def test_series_of_a_rescaled_jet_are_finite_and_rescale(name, scale):
    # log, 1/f and fractional powers sum their series in t = (f - b)/b, so a
    # base value near the ends of the float range leaves every coefficient
    # finite, and each matches the scale-1 jet under the known rescaling
    h, rescale = _RESCALED[name]
    caps = geometry.MASTER_CAPS
    c = np.random.default_rng(3).uniform(-0.3, 0.3, caps.tables.n)
    c[0] = 1.4
    got = h(JetScalar(caps, c * scale)).c
    want = rescale(h(JetScalar(caps, c)).c, scale)
    assert np.isfinite(got).all()
    # within a few ulp: of the base value, and of the largest other coefficient
    assert abs(got[0] - want[0]) <= 4 * np.spacing(abs(want[0]))
    assert np.abs(got[1:] - want[1:]).max() <= 8 * np.spacing(np.abs(want[1:]).max())

import math

import numpy as np
import pytest

from finsler4 import jets
from finsler4.exprdsl import (
    BinOp,
    Call,
    ExprSyntaxError,
    Lit,
    Neg,
    NonConstantExponent,
    Pow,
    UnknownIdentifier,
    Var,
    eval_expr,
    parse_expr,
    variables_used,
)


def test_parse_product_power():
    ast = parse_expr("(y1*y2*y3*y4)^0.25")
    assert isinstance(ast, Pow)
    assert ast.exponent == 0.25
    assert isinstance(ast.base, BinOp) and ast.base.op == "*"


def test_parse_precedence_power_before_mul():
    ast = parse_expr("0.1*x1 + 0.05*x2^2")
    expected = BinOp(
        "+",
        BinOp("*", Lit(0.1), Var(0, "x1")),
        BinOp("*", Lit(0.05), Pow(Var(1, "x2"), 2.0)),
    )
    assert ast == expected


def test_unary_minus_binds_looser_than_power():
    assert parse_expr("-x1^2") == Neg(Pow(Var(0, "x1"), 2.0))
    assert parse_expr("(-x1)^2") == Pow(Neg(Var(0, "x1")), 2.0)


def test_non_constant_exponent():
    with pytest.raises(NonConstantExponent):
        parse_expr("y1 ^ x2")


def test_unknown_identifier_carries_offset():
    with pytest.raises(UnknownIdentifier) as exc:
        parse_expr("y1 + zz")
    assert exc.value.offset == 5


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("y1 + ")
    assert exc.value.offset == 5
    with pytest.raises(ExprSyntaxError):
        parse_expr("y1 ^ 2 ^ 3")  # exponent chains are not part of the grammar


@pytest.mark.parametrize("text, offset", [
    ("y1^1e400", 3), ("y1^-1e400", 4), ("y1*1e400", 3), ("-1e400*y1", 1),
])
def test_number_that_is_not_finite_is_a_syntax_error(text, offset):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr(text)
    assert exc.value.offset == offset
    assert "'1e400' is not finite" in str(exc.value)


def test_eval_unit_point():
    ast = parse_expr("(y1*y2*y3*y4)^0.25")
    env = [0.0] * 4 + [1.0, 1.0, 1.0, 1.0]
    assert eval_expr(ast, env) == pytest.approx(1.0)


def test_eval_euclidean_norm():
    ast = parse_expr("sqrt(y1^2+y2^2+y3^2+y4^2)")
    env = [0.0] * 4 + [1.0, 2.0, 1.0, 1.0]
    assert eval_expr(ast, env) == pytest.approx(math.sqrt(7.0))


def test_eval_jet_partial():
    ast = parse_expr("0.1*x1 + 0.05*x2^2")
    caps = jets.DegreeCaps(1, 4)
    env = [jets.variable(i, v, caps) for i, v in enumerate([2.0, 3.0, 0.0, 0.0])]
    env += [jets.variable(4 + i, 1.0, caps) for i in range(4)]
    out = eval_expr(ast, env)
    assert jets.partial_extract(out, jets.multi(1)) == pytest.approx(0.3, rel=1e-12)


def test_parse_determinism():
    src = "0.1*x1 + sqrt(y1^2+0.5)/cos(x2)"
    assert parse_expr(src) == parse_expr(src)


def _random_ast(rng, depth=0):
    kinds = ["lit", "var", "neg", "bin", "pow", "call"]
    if depth > 4:
        kinds = ["lit", "var"]
    kind = rng.choice(kinds)
    if kind == "lit":
        return Lit(float(np.round(rng.uniform(0.1, 3.0), 3)))
    if kind == "var":
        names = ("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4")
        name = names[rng.integers(0, 8)]
        return Var(names.index(name), name)
    if kind == "neg":
        return Neg(_random_ast(rng, depth + 1))
    if kind == "bin":
        op = ["+", "-", "*", "/"][rng.integers(0, 4)]
        return BinOp(op, _random_ast(rng, depth + 1), _random_ast(rng, depth + 1))
    if kind == "pow":
        return Pow(_random_ast(rng, depth + 1), float(rng.integers(1, 4)))
    return Call(
        ["sqrt", "exp", "log", "sin", "cos"][rng.integers(0, 5)],
        _random_ast(rng, depth + 1),
    )


def _corpus(n=50):
    rng = np.random.default_rng(2024)
    return [_random_ast(rng) for _ in range(n)]


def test_operators_of_one_precedence_associate_left_unless_bracketed():
    x1, x2, x3 = (Var(i, f"x{i + 1}") for i in range(3))
    assert parse_expr("x1-x2-x3") == BinOp("-", BinOp("-", x1, x2), x3)
    assert parse_expr("x1/x2*x3") == BinOp("*", BinOp("/", x1, x2), x3)
    assert parse_expr("x1-(x2-x3)") == BinOp("-", x1, BinOp("-", x2, x3))


def test_variables_used_reaches_every_kind_of_node():
    assert variables_used(parse_expr("sqrt(x1^2)+-y3*exp(x1)/x4")) == {0, 3, 6}
    assert variables_used(parse_expr("2*3")) == set()


def test_real_ring_matches_jet_base_on_corpus():
    rng = np.random.default_rng(7)
    caps = jets.DegreeCaps(1, 2)
    for ast in _corpus(50):
        point = rng.uniform(0.6, 1.4, 8)
        env_real = list(point)
        env_jet = [jets.variable(i, point[i], caps) for i in range(8)]
        try:
            real = eval_expr(ast, env_real)
        except jets.DomainViolation:
            continue
        jet = eval_expr(ast, env_jet)
        base = jet.base if isinstance(jet, jets.JetScalar) else jet
        assert base == pytest.approx(real, rel=1e-14, abs=1e-14)


def test_a_numpy_number_meets_a_jet_on_either_side():
    # sqrt(2) and exp(0.5) evaluate to NumPy numbers, which hand every
    # operator with a jet to the jet
    ast = parse_expr("sqrt(2)*y1 + y1*exp(0.5) - cos(0)/y1 + (sin(1)+y1)")
    caps = jets.DegreeCaps(0, 1)
    env = [0.0] * 4 + [jets.variable(4 + i, 2.0, caps) for i in range(4)]
    out = eval_expr(ast, env)
    assert isinstance(out, jets.JetScalar) and out.c.dtype == np.float64
    assert jets.partial_extract(out, jets.multi(4)) == pytest.approx(
        math.sqrt(2.0) + math.exp(0.5) + 0.25 + 1.0, rel=1e-14
    )

"""Parser and evaluator for scalar expressions in x1..x4, y1..y4.

The grammar (documented in the README) is a small smooth-function
language: arithmetic, constant powers, and the elementary calls sqrt,
exp, log, sin, cos.  Exponents must be numeric literals so that every
admitted expression is infinitely differentiable on its domain; there is
deliberately no abs/min/max.

Precedence, tightest first: ``^``, unary ``-``, ``* /``, ``+ -``.
``^`` takes a single literal exponent (chains like ``a^2^3`` are
rejected).  Evaluation is ring-polymorphic: the same AST runs on NumPy
values (a plain number is a 0-d value, an array is taken elementwise) or
on :class:`~finsler4.jets.JetScalar` values, with the eight variable
values given by slot.  It is the one evaluator of L: every built-in
metric family is an expression too
(:func:`finsler4.metrics.make_builtin_metric`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import jets

VAR_NAMES = ("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4")
VAR_SLOT = {name: i for i, name in enumerate(VAR_NAMES)}
FUNCTIONS = {
    "sqrt": jets.sqrt,
    "exp": jets.exp,
    "log": jets.log,
    "sin": jets.sin,
    "cos": jets.cos,
}


class ExprError(jets.Finsler4Error):
    def __init__(self, message: str, offset: int | None = None) -> None:
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class ExprSyntaxError(ExprError):
    pass


class UnknownIdentifier(ExprError):
    def __init__(self, name: str, offset: int | None = None) -> None:
        super().__init__(f"unknown identifier {name!r}", offset)
        self.name = name


class NonConstantExponent(ExprError):
    def __init__(self, offset: int | None = None) -> None:
        super().__init__("exponent must be a numeric literal", offset)


# -- AST -----------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Var:
    slot: int
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "ExprAst"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Pow:
    base: "ExprAst"
    exponent: float


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "ExprAst"


ExprAst = Union[Lit, Var, Neg, BinOp, Pow, Call]


# -- tokenizer -----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


# -- parser --------------------------------------------------------------


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}, found {text or 'end of input'!r}", off)
        self.advance()

    def expression(self) -> ExprAst:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> ExprAst:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.factor())
            else:
                return node

    def factor(self) -> ExprAst:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.factor())
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            node = Pow(node, self.exponent_literal())
        return node

    def exponent_literal(self) -> float:
        sign = 1.0
        kind, text, off = self.peek()
        if kind == "op" and text in "+-":
            self.advance()
            sign = -1.0 if text == "-" else 1.0
            kind, text, off = self.peek()
        if kind == "number":
            self.advance()
            return sign * float(text)
        if kind == "ident":
            raise NonConstantExponent(off)
        raise ExprSyntaxError("expected a numeric exponent", off)

    def atom(self) -> ExprAst:
        kind, text, off = self.advance()
        if kind == "number":
            return Lit(float(text))
        if kind == "ident":
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(")")
                return Call(text, arg)
            slot = VAR_SLOT.get(text)
            if slot is None:
                raise UnknownIdentifier(text, off)
            return Var(slot, text)
        if kind == "op" and text == "(":
            node = self.expression()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected {text or 'end of input'!r}", off)


def parse_expr(text: str) -> ExprAst:
    parser = _Parser(text)
    node = parser.expression()
    kind, tok, off = parser.peek()
    if kind != "eof":
        raise ExprSyntaxError(f"unexpected trailing {tok!r}", off)
    return node


# -- evaluation ----------------------------------------------------------

def eval_expr(ast: ExprAst, env: Sequence):
    """Evaluate bottom-up in whatever ring the environment provides.

    ``env`` holds the values of the eight variable slots, x1..x4 then y1..y4.
    """
    if isinstance(ast, Lit):
        return ast.value
    if isinstance(ast, Var):
        return env[ast.slot]
    if isinstance(ast, Neg):
        return -eval_expr(ast.arg, env)
    if isinstance(ast, Pow):
        return jets.power(eval_expr(ast.base, env), ast.exponent)
    if isinstance(ast, Call):
        return FUNCTIONS[ast.fn](eval_expr(ast.arg, env))
    if isinstance(ast, BinOp):
        lhs = eval_expr(ast.left, env)
        rhs = eval_expr(ast.right, env)
        if ast.op == "+":
            return lhs + rhs
        if ast.op == "-":
            return lhs - rhs
        if ast.op == "*":
            return lhs * rhs
        # a jet divisor checks its own base value
        if not isinstance(rhs, jets.JetScalar) and np.any(rhs == 0):
            raise jets.DomainViolation("division by zero")
        return lhs / rhs
    raise TypeError(f"not an expression node: {ast!r}")


def variables_used(ast: ExprAst) -> set[int]:
    """Slots of all variables appearing in the expression."""
    if isinstance(ast, Var):
        return {ast.slot}
    if isinstance(ast, Neg):
        return variables_used(ast.arg)
    if isinstance(ast, Pow):
        return variables_used(ast.base)
    if isinstance(ast, Call):
        return variables_used(ast.arg)
    if isinstance(ast, BinOp):
        return variables_used(ast.left) | variables_used(ast.right)
    return set()


# -- pretty printer -------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: ExprAst) -> int:
    if isinstance(node, BinOp):
        return _PREC_ADD if node.op in "+-" else _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Pow):
        return _PREC_POW
    return _PREC_ATOM


def pretty(node: ExprAst) -> str:
    """Source form that re-parses to a structurally identical AST."""
    if isinstance(node, Lit):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({pretty(node.arg)})"
    if isinstance(node, Neg):
        inner = pretty(node.arg)
        if _prec(node.arg) < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Pow):
        base = pretty(node.base)
        if _prec(node.base) < _PREC_ATOM:
            base = f"({base})"
        return f"{base}^{repr(node.exponent)}"
    if isinstance(node, BinOp):
        prec = _prec(node)
        left = pretty(node.left)
        if _prec(node.left) < prec:
            left = f"({left})"
        right = pretty(node.right)
        # parenthesise same-precedence right children: parsing is left-associative
        if _prec(node.right) <= prec:
            right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an expression node: {node!r}")

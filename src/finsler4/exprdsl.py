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

import math
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
# The deepest nesting (brackets, calls, unary minus) and the deepest tree an
# expression may have.  The parser takes up to four Python frames per
# nesting level and the evaluator one per tree level (two under a tracing
# wrapper), so both stay well below Python's default recursion limit of 1000.
MAX_DEPTH = 150
ECHO_CHARS = 40  # a rejected input is echoed up to this many characters


class ExprError(jets.SpecError):
    def __init__(self, message: str, offset: int | None = None) -> None:
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class ExprSyntaxError(ExprError):
    pass


def echo(text: str) -> str:
    """``text`` cut to ECHO_CHARS characters, marked with "..." if cut."""
    return text if len(text) <= ECHO_CHARS else text[:ECHO_CHARS] + "..."


class UnknownIdentifier(ExprError):
    def __init__(self, name: str, offset: int | None = None) -> None:
        super().__init__(f"unknown identifier {echo(name)!r}", offset)
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


def _finite(text: str, offset: int) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ExprSyntaxError(f"number {echo(text)!r} is not finite", offset)
    return value


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}, found {echo(text) or 'end of input'!r}", off)
        self.advance()

    def enter(self) -> None:
        """Go one nesting level down (the caller comes back up); refused
        past MAX_DEPTH levels."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels",
                                  self.peek()[2])

    def expression(self) -> ExprAst:
        self.enter()
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                self.nesting -= 1
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
            self.enter()
            node = Neg(self.factor())
            self.nesting -= 1
            return node
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
            return sign * _finite(text, off)
        if kind == "ident":
            raise NonConstantExponent(off)
        raise ExprSyntaxError("expected a numeric exponent", off)

    def atom(self) -> ExprAst:
        kind, text, off = self.advance()
        if kind == "number":
            return Lit(_finite(text, off))
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
        raise ExprSyntaxError(f"unexpected {echo(text) or 'end of input'!r}", off)


def parse_expr(text: str) -> ExprAst:
    parser = _Parser(text)
    node = parser.expression()
    kind, tok, off = parser.peek()
    if kind != "eof":
        raise ExprSyntaxError(f"unexpected trailing {echo(tok)!r}", off)
    if _depth(node) > MAX_DEPTH:
        raise ExprSyntaxError(
            f"expression deeper than {MAX_DEPTH} levels (each term of a sum or product adds one)"
        )
    return node


def _children(node: ExprAst) -> tuple:
    """The subtrees of ``node``, left to right."""
    if isinstance(node, BinOp):
        return node.left, node.right
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    return ()


def _depth(node: ExprAst) -> int:
    """The levels of the tree under ``node``, a leaf being one, counted
    without recursion."""
    deepest, todo = 0, [(node, 1)]
    while todo:
        node, level = todo.pop()
        deepest = max(deepest, level)
        todo += [(child, level + 1) for child in _children(node)]
    return deepest


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
    raise jets.InvalidArgument(f"not an expression node: {ast!r}")


def variables_used(ast: ExprAst) -> set[int]:
    """Slots of all variables appearing in the expression."""
    slots, todo = set(), [ast]
    while todo:
        node = todo.pop()
        if isinstance(node, Var):
            slots.add(node.slot)
        todo += _children(node)
    return slots

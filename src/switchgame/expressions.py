"""Parser and evaluator for scalar coefficient functions of (t, x).

Grammar (whitespace insignificant):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := base ("^" INTEGER)?
    base   := NUMBER | "t" | "x" | IDENT "(" expr ("," expr)* ")"
            | "(" expr ")" | "-" factor

NUMBER is a decimal literal with optional fraction and exponent.  The
function set is fixed and closed: min/max (binary), exp/abs/sqrt/sin/cos
(unary).  Exponents are non-negative integers only; general powers are
deliberately unsupported.  Trees are immutable and evaluation is pure, so
results never depend on call order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ExpressionDomainError, ExpressionSyntaxError

FUNCTIONS = {"min": 2, "max": 2, "exp": 1, "abs": 1, "sqrt": 1, "sin": 1, "cos": 1}

VARIABLES = ("t", "x")


@dataclass(frozen=True)
class Const:
    value: float
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: "ExpressionTree"
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "ExpressionTree"
    right: "ExpressionTree"
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Pow:
    base: "ExpressionTree"
    exponent: int
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["ExpressionTree", ...]
    offset: int = field(default=0, compare=False)


ExpressionTree = Const | Var | Neg | BinOp | Pow | Call

ZERO = Const(0.0)


@dataclass(frozen=True)
class EvalContext:
    """Point (or vector of points) at which an expression is evaluated."""

    t: float | np.ndarray
    x: float | np.ndarray


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r")"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None or match.end() == match.start():
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad = len(source) - len(stripped)
            raise ExpressionSyntaxError(f"unexpected character {source[bad]!r}", bad)
        if match.group("number") is not None:
            tokens.append(("number", match.group("number"), match.start("number")))
        elif match.group("ident") is not None:
            tokens.append(("ident", match.group("ident"), match.start("ident")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(("eof", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, offset = self.peek()
        if kind == "op" and text == symbol:
            return self.advance()
        raise ExpressionSyntaxError("syntax error", offset, (repr(symbol),))

    def parse(self) -> ExpressionTree:
        tree = self.expr()
        kind, text, offset = self.peek()
        if kind != "eof":
            raise ExpressionSyntaxError(f"trailing input {text!r}", offset, ("end of input",))
        return tree

    def expr(self) -> ExpressionTree:
        node = self.term()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = BinOp(text, node, rhs, offset)
            else:
                return node

    def term(self) -> ExpressionTree:
        node = self.factor()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.factor()
                node = BinOp(text, node, rhs, offset)
            else:
                return node

    def factor(self) -> ExpressionTree:
        node = self.base()
        kind, text, offset = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            nkind, ntext, noffset = self.peek()
            if nkind != "number" or not re.fullmatch(r"\d+", ntext):
                raise ExpressionSyntaxError("syntax error", noffset, ("non-negative integer exponent",))
            self.advance()
            node = Pow(node, int(ntext), offset)
        return node

    def base(self) -> ExpressionTree:
        kind, text, offset = self.advance()
        if kind == "number":
            return Const(float(text), offset)
        if kind == "ident":
            if text in VARIABLES:
                return Var(text, offset)
            if text in FUNCTIONS:
                self.expect_op("(")
                args = [self.expr()]
                while True:
                    pkind, ptext, poffset = self.peek()
                    if pkind == "op" and ptext == ",":
                        self.advance()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                arity = FUNCTIONS[text]
                if len(args) != arity:
                    raise ExpressionSyntaxError(
                        f"{text} takes {arity} argument(s), got {len(args)}", offset
                    )
                return Call(text, tuple(args), offset)
            raise ExpressionSyntaxError(f"unknown identifier {text!r}", offset, VARIABLES + tuple(FUNCTIONS))
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "op" and text == "-":
            return Neg(self.factor(), offset)
        expected = ("NUMBER", "'t'", "'x'", "function name", "'('", "'-'")
        raise ExpressionSyntaxError("syntax error", offset, expected)


def parse_expression(source: str) -> ExpressionTree:
    """Parse ``source`` into an immutable expression tree.

    Raises ExpressionSyntaxError carrying the byte offset and the set of
    tokens that would have been accepted there.
    """
    return _Parser(source).parse()


def _eval(node: ExpressionTree, t, x):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return t if node.name == "t" else x
    if isinstance(node, Neg):
        return -_eval(node.operand, t, x)
    if isinstance(node, BinOp):
        left = _eval(node.left, t, x)
        right = _eval(node.right, t, x)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if np.any(right == 0):
            raise ExpressionDomainError("division by zero", node.offset)
        return left / right
    if isinstance(node, Pow):
        return _eval(node.base, t, x) ** node.exponent
    args = [_eval(arg, t, x) for arg in node.args]
    if node.func == "min":
        return np.minimum(args[0], args[1])
    if node.func == "max":
        return np.maximum(args[0], args[1])
    if node.func == "exp":
        return np.exp(args[0])
    if node.func == "abs":
        return np.abs(args[0])
    if node.func == "sqrt":
        if np.any(args[0] < 0):
            raise ExpressionDomainError("square root of negative value", node.offset)
        return np.sqrt(args[0])
    if node.func == "sin":
        return np.sin(args[0])
    return np.cos(args[0])


def evaluate(tree: ExpressionTree, ctx: EvalContext):
    """Evaluate ``tree`` at ``ctx``; scalars in give scalars out, arrays broadcast.

    Division by zero, sqrt of a negative, and overflow all raise
    ExpressionDomainError rather than returning a non-finite value.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = _eval(tree, ctx.t, ctx.x)
    if not np.all(np.isfinite(out)):
        raise ExpressionDomainError("non-finite result", getattr(tree, "offset", 0))
    return out


def free_variables(tree: ExpressionTree) -> set[str]:
    """Exact set of variable names that occur in the tree."""
    if isinstance(tree, Var):
        return {tree.name}
    if isinstance(tree, (Const,)):
        return set()
    if isinstance(tree, Neg):
        return free_variables(tree.operand)
    if isinstance(tree, BinOp):
        return free_variables(tree.left) | free_variables(tree.right)
    if isinstance(tree, Pow):
        return free_variables(tree.base)
    out: set[str] = set()
    for arg in tree.args:
        out |= free_variables(arg)
    return out


def to_source(tree: ExpressionTree) -> str:
    """Render a tree back to source.  Fully parenthesized, so the output
    re-parses to a structurally identical tree."""
    if isinstance(tree, Const):
        return repr(tree.value)
    if isinstance(tree, Var):
        return tree.name
    if isinstance(tree, Neg):
        return f"(-{to_source(tree.operand)})"
    if isinstance(tree, BinOp):
        return f"({to_source(tree.left)} {tree.op} {to_source(tree.right)})"
    if isinstance(tree, Pow):
        return f"({to_source(tree.base)})^{tree.exponent}"
    args = ", ".join(to_source(arg) for arg in tree.args)
    return f"{tree.func}({args})"

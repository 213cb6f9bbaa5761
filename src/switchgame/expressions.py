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
deliberately unsupported.  Nesting and tree height are at most MAX_DEPTH.
Trees are immutable and evaluation is pure, so results never depend on
call order.
"""

from __future__ import annotations

import math
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


def _cached_hash(node) -> int:
    """The node's structural hash, computed once: ``_eval``'s memo looks up
    every operator node at every evaluation, and a dataclass's own hash
    walks the whole subtree each time."""
    known = node.__dict__.get("_hash")
    if known is None:
        known = node.__dict__["_hash"] = type(node)._structural_hash(node)
    return known


for _node in (Neg, BinOp, Pow, Call):
    _node._structural_hash, _node.__hash__ = _node.__hash__, _cached_hash

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


MAX_DEPTH = 100  # nesting of parentheses, negations and calls, and height of the tree


class _Parser:
    """Recursive descent; ``height`` is the height of the tree returned last."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.nesting = 0
        self.height = 0

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

    def bounded(self, depth: int, offset: int) -> int:
        if depth > MAX_DEPTH:
            raise ExpressionSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", offset)
        return depth

    def parse(self) -> ExpressionTree:
        tree = self.expr()
        kind, text, offset = self.peek()
        if kind != "eof":
            raise ExpressionSyntaxError(f"trailing input {text!r}", offset, ("end of input",))
        return tree

    def expr(self) -> ExpressionTree:
        return self.chain(self.term, "+-")

    def term(self) -> ExpressionTree:
        return self.chain(self.factor, "*/")

    def chain(self, operand, ops: str) -> ExpressionTree:
        """operand (op operand)* with ops of ``ops``, associated to the left."""
        node, height = operand(), self.height
        while True:
            kind, text, offset = self.peek()
            if kind != "op" or text not in ops:
                self.height = height
                return node
            self.advance()
            rhs = operand()
            height = self.bounded(max(height, self.height) + 1, offset)
            node = BinOp(text, node, rhs, offset)

    def factor(self) -> ExpressionTree:
        node = self.base()
        kind, text, offset = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            nkind, ntext, noffset = self.peek()
            if nkind != "number" or not re.fullmatch(r"\d+", ntext):
                raise ExpressionSyntaxError("syntax error", noffset, ("non-negative integer exponent",))
            self.advance()
            self.height = self.bounded(self.height + 1, offset)
            node = Pow(node, int(ntext), offset)
        return node

    def base(self) -> ExpressionTree:
        kind, text, offset = self.advance()
        if kind == "number":
            self.height = 1
            return Const(float(text), offset)
        if kind == "ident":
            if text in VARIABLES:
                self.height = 1
                return Var(text, offset)
            if text in FUNCTIONS:
                self.expect_op("(")
                args, height = [self.inner(self.expr, offset)], self.height
                while True:
                    pkind, ptext, poffset = self.peek()
                    if pkind == "op" and ptext == ",":
                        self.advance()
                        args.append(self.inner(self.expr, offset))
                        height = max(height, self.height)
                    else:
                        break
                self.expect_op(")")
                arity = FUNCTIONS[text]
                if len(args) != arity:
                    raise ExpressionSyntaxError(
                        f"{text} takes {arity} argument(s), got {len(args)}", offset
                    )
                self.height = self.bounded(height + 1, offset)
                return Call(text, tuple(args), offset)
            raise ExpressionSyntaxError(f"unknown identifier {text!r}", offset, VARIABLES + tuple(FUNCTIONS))
        if kind == "op" and text == "(":
            node = self.inner(self.expr, offset)
            self.expect_op(")")
            return node
        if kind == "op" and text == "-":
            node = self.inner(self.factor, offset)
            self.height = self.bounded(self.height + 1, offset)
            return Neg(node, offset)
        expected = ("NUMBER", "'t'", "'x'", "function name", "'('", "'-'")
        raise ExpressionSyntaxError("syntax error", offset, expected)

    def inner(self, parse, offset: int) -> ExpressionTree:
        """parse(), one level deeper in the nesting that the token at
        ``offset`` opens."""
        self.nesting = self.bounded(self.nesting + 1, offset)
        node = parse()
        self.nesting -= 1
        return node


def parse_expression(source: str) -> ExpressionTree:
    """Parse ``source`` into an immutable expression tree.

    Raises ExpressionSyntaxError carrying the byte offset and the set of
    tokens that would have been accepted there.
    """
    return _Parser(source).parse()


def _power(base, exponent: int):
    """base ** exponent by square-and-multiply, in one fixed order, so a
    scalar and an array base give the same bits (C pow and numpy's power
    loop round differently); base * base is also what numpy computes for an
    array's ** 2."""
    if exponent == 0:
        return base ** 0  # exactly 1 for every base
    out = None
    while True:
        if exponent & 1:
            out = base if out is None else out * base
        exponent >>= 1
        if not exponent:
            return out
        base = base * base


def _eval(node: ExpressionTree, t, x, memo: dict | None = None):
    """Value of ``node`` at (t, x).  With a ``memo``, every operator node's
    value is kept under the node, so a structurally equal subtree (offsets
    are not compared) is computed once."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return t if node.name == "t" else x
    if memo is not None:
        known = memo.get(node)
        if known is not None:
            return known
    if isinstance(node, Neg):
        out = -_eval(node.operand, t, x, memo)
    elif isinstance(node, BinOp):
        left = _eval(node.left, t, x, memo)
        right = _eval(node.right, t, x, memo)
        if node.op == "+":
            out = left + right
        elif node.op == "-":
            out = left - right
        elif node.op == "*":
            out = left * right
        elif np.any(right == 0):
            raise ExpressionDomainError("division by zero", node.offset)
        else:
            out = left / right
    elif isinstance(node, Pow):
        out = _power(_eval(node.base, t, x, memo), node.exponent)
    else:
        args = [_eval(arg, t, x, memo) for arg in node.args]
        if node.func == "min":
            out = np.minimum(args[0], args[1])
        elif node.func == "max":
            out = np.maximum(args[0], args[1])
        elif node.func == "exp":
            out = np.exp(args[0])
        elif node.func == "abs":
            out = np.abs(args[0])
        elif node.func == "sqrt":
            if np.any(args[0] < 0):
                raise ExpressionDomainError("square root of negative value", node.offset)
            out = np.sqrt(args[0])
        elif node.func == "sin":
            out = np.sin(args[0])
        else:
            out = np.cos(args[0])
    if memo is not None:
        memo[node] = out
    return out


def evaluate_all(trees, ctx: EvalContext) -> list:
    """evaluate of each tree at ``ctx``, in order, raising the error that
    evaluating them one by one would raise first.

    With several trees, a subtree that occurs in more than one of them
    (structural equality, offsets not compared) is computed once; results
    may then share memory, so callers must not write into them.  Parsed
    constants are never -0.0, so equal subtrees give equal bits.
    """
    memo = {} if len(trees) > 1 else None
    outs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for tree in trees:
            out = _eval(tree, ctx.t, ctx.x, memo)
            if not (math.isfinite(out) if isinstance(out, float) else np.isfinite(out).all()):
                raise ExpressionDomainError("non-finite result", getattr(tree, "offset", 0))
            outs.append(out)
    return outs


def evaluate(tree: ExpressionTree, ctx: EvalContext):
    """Evaluate ``tree`` at ``ctx``; scalars in give scalars out, arrays broadcast.

    Division by zero and sqrt of a negative raise ExpressionDomainError at
    their node, and a non-finite value raises it at the root: an overflow
    inside the expression raises only if it reaches the value, for a
    scalar and an array alike.
    """
    return evaluate_all((tree,), ctx)[0]


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

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from switchgame.errors import ExpressionDomainError, ExpressionSyntaxError
from switchgame.expressions import (
    MAX_DEPTH,
    BinOp,
    Const,
    EvalContext,
    Neg,
    Pow,
    Var,
    evaluate,
    evaluate_all,
    free_variables,
    parse_expression,
)


def to_source(tree):
    """Render a tree back to source that re-parses to a structurally equal
    tree, nested no deeper: every operation but a negation is parenthesized."""
    if isinstance(tree, Const):
        return repr(tree.value)
    if isinstance(tree, Var):
        return tree.name
    if isinstance(tree, Neg):
        return f"-{to_source(tree.operand)}"
    if isinstance(tree, BinOp):
        return f"({to_source(tree.left)} {tree.op} {to_source(tree.right)})"
    if isinstance(tree, Pow):
        return f"({to_source(tree.base)})^{tree.exponent}"
    args = ", ".join(to_source(arg) for arg in tree.args)
    return f"{tree.func}({args})"


def test_parse_and_eval_basic():
    assert evaluate(parse_expression("x^2 + 1"), EvalContext(0.0, 2.0)) == 5.0
    assert evaluate(parse_expression("min(x, 0) * exp(t)"), EvalContext(3.0, 1.0)) == 0.0
    assert evaluate(parse_expression("2*t + x"), EvalContext(1.0, 3.0)) == 5.0
    assert evaluate(parse_expression("max(x, t)"), EvalContext(2.0, -1.0)) == 2.0


def test_syntax_error_offset():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("x +")
    assert err.value.offset == 3
    assert err.value.expected


_DEEP = {
    "parentheses": lambda n: "(" * n + "x" + ")" * n,
    "negations": lambda n: "-" * n + "x",
    "calls": lambda n: "abs(" * n + "x" + ")" * n,
    "sum": lambda n: "+".join(["x"] * (n + 1)),
}


@pytest.mark.parametrize("shape,depth,offset", [
    ("parentheses", MAX_DEPTH + 1, MAX_DEPTH),  # the parenthesis one too deep
    ("negations", MAX_DEPTH + 1, MAX_DEPTH),  # the negation one too deep, on the way down
    ("negations", MAX_DEPTH, 0),  # MAX_DEPTH + 1 nodes deep, at the outermost
    ("calls", MAX_DEPTH, 0),
    ("sum", MAX_DEPTH, 2 * MAX_DEPTH - 1),  # the plus that makes the tree too deep
])
def test_expression_deeper_than_the_bound_is_a_syntax_error(shape, depth, offset):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression(_DEEP[shape](depth))
    assert err.value.offset == offset
    assert str(err.value) == f"expression nested deeper than {MAX_DEPTH} levels at offset {offset}"


@pytest.mark.parametrize("shape,depth", [("parentheses", MAX_DEPTH), ("negations", MAX_DEPTH - 1),
                                         ("calls", MAX_DEPTH - 1), ("sum", MAX_DEPTH - 1)])
def test_expression_at_the_bound_parses_evaluates_and_renders(shape, depth):
    tree = parse_expression(_DEEP[shape](depth))
    x = np.array([-0.5, 2.0])
    expected = {"parentheses": x, "negations": x * (-1) ** depth, "calls": np.abs(x),
                "sum": x * depth + x}[shape]
    assert np.array_equal(evaluate_all([tree, tree], EvalContext(0.0, x))[1], expected)
    assert parse_expression(to_source(tree)) == tree
    assert free_variables(tree) == {"x"}


def test_domain_errors():
    with pytest.raises(ExpressionDomainError):
        evaluate(parse_expression("1/x"), EvalContext(0.0, 0.0))
    with pytest.raises(ExpressionDomainError):
        evaluate(parse_expression("sqrt(x)"), EvalContext(0.0, -1.0))
    with pytest.raises(ExpressionDomainError):
        # overflow must not leak a silent inf
        evaluate(parse_expression("exp(exp(x))"), EvalContext(0.0, 100.0))


def test_power_that_overflows_a_float_is_a_domain_error():
    # a Python float's ** raises OverflowError where an array's gives inf
    with pytest.raises(ExpressionDomainError):
        evaluate(parse_expression("x^2"), EvalContext(0.0, 1e200))


def test_unknown_identifier_and_arity():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("foo(x)")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("min(x)")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("exp(x, t)")


def test_power_restricted_to_nonnegative_integers():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x^-2")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x^1.5")
    assert evaluate(parse_expression("x^0"), EvalContext(0.0, 7.0)) == 1.0


def test_free_variables():
    assert free_variables(parse_expression("x^2")) == {"x"}
    assert free_variables(parse_expression("3.5")) == set()
    assert free_variables(parse_expression("t*x")) == {"t", "x"}


def test_precedence():
    a, b, c = 2.0, 3.0, 4.0
    assert evaluate(parse_expression("2 + 3 * 4"), EvalContext(0, 0)) == a + (b * c)
    assert evaluate(parse_expression("-x^2"), EvalContext(0.0, 3.0)) == -(3.0 ** 2)
    assert evaluate(parse_expression("2 - 3 - 4"), EvalContext(0, 0)) == (a - b) - c


def test_vectorized_evaluation_matches_scalar():
    tree = parse_expression("sin(x) * exp(t) + x^3")
    xs = np.linspace(-2, 2, 17)
    vec = evaluate(tree, EvalContext(0.3, xs))
    for xv, out in zip(xs, vec):
        assert out == evaluate(tree, EvalContext(0.3, float(xv)))


@pytest.mark.parametrize("exponent", range(13))
def test_power_of_a_scalar_and_of_the_lattice_agree_bit_for_bit(exponent):
    tree = parse_expression(f"t^{exponent}")
    lattice = np.concatenate([np.linspace(0.0, 1.0, 2001), np.linspace(-3.0, 3.0, 1001)])
    on_lattice = evaluate(tree, EvalContext(lattice, 0.0))
    for t, want in zip(lattice.tolist(), on_lattice.tolist()):
        for scalar in (t, np.float64(t)):
            got = float(evaluate(tree, EvalContext(scalar, 0.0)))
            assert math.copysign(1.0, got) == math.copysign(1.0, want)
            assert got == want, (t, exponent)


def test_power_that_overflows_raises_at_the_power_node():
    with pytest.raises(ExpressionDomainError) as err:
        evaluate(parse_expression("1 + x^3"), EvalContext(0.0, 1e120))
    assert err.value.offset == 5


_ROW_EXPRESSIONS = [
    "x + t", "x - 0.3", "1.7 * x", "1 / x", "-x", "x^3", "x^7", "t*x^2",
    "min(x, 1.5)", "max(x, 1.5)", "exp(x)", "abs(x - 1)", "sqrt(x)", "sin(x)", "cos(x)",
    "1.1*(t - 0.3)*(1 + 0.1*cos(x)) + -0.9*(t - 0.4)*(1 + 0.1*sin(x))",
]


@pytest.mark.parametrize("source", _ROW_EXPRESSIONS)
def test_row_then_select_equals_evaluating_the_subset(source):
    # numpy's SIMD loops must not round a path differently by where it sits
    # in the array: selecting from a whole-row evaluation is the subset's
    rng = np.random.default_rng(20240811)
    row = rng.uniform(0.05, 3.0, 50000)
    tree = parse_expression(source)
    whole = np.broadcast_to(evaluate(tree, EvalContext(0.37, row)), row.shape)
    for start, length in ((1, 1), (3, 3), (5, 17), (7, 1001), (11, 31337)):
        part = slice(start, start + length)
        got = np.broadcast_to(evaluate(tree, EvalContext(0.37, row[part])), (length,))
        assert got.view(np.int64).tolist() == whole[part].view(np.int64).tolist()
    for length in (1, 7, 999, 24999):
        idx = np.sort(rng.choice(row.size, length, replace=False))
        got = np.broadcast_to(evaluate(tree, EvalContext(0.37, row[idx])), (length,))
        assert got.view(np.int64).tolist() == whole[idx].view(np.int64).tolist()


def test_evaluate_all_computes_a_shared_subtree_once(monkeypatch):
    from switchgame import expressions

    trees = [parse_expression(s) for s in
             ("2*sin(x)", "cos(x) - t", "2*sin(x) + (cos(x) - t)", "cos(x)")]
    ctx = EvalContext(0.3, np.linspace(-2, 2, 101))
    calls = {}
    original = expressions._eval

    def counting(node, t, x, memo=None):
        calls[node] = calls.get(node, 0) + 1
        return original(node, t, x, memo)

    monkeypatch.setattr(expressions, "_eval", counting)
    outs = expressions.evaluate_all(trees, ctx)
    twice, sine = trees[0], trees[0].right
    assert calls[twice] == 2  # computed, then read from the memo
    assert calls[sine] == 1
    monkeypatch.undo()
    for tree, out in zip(trees, outs):
        assert out.tobytes() == evaluate(tree, ctx).tobytes()


def test_evaluate_all_raises_the_first_error_in_tree_order():
    trees = [parse_expression(s) for s in ("x", "exp(1000*x)", "1/(x - x)")]
    with pytest.raises(ExpressionDomainError) as err:
        evaluate_all(trees, EvalContext(0.0, np.array([1.0, 2.0])))
    assert str(err.value) == "non-finite result at offset 0"


def test_evaluation_is_pure():
    tree = parse_expression("x*t - cos(x)")
    first = evaluate(tree, EvalContext(0.7, -1.3))
    assert evaluate(tree, EvalContext(0.7, -1.3)) == first


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------

_expr_leaf = st.sampled_from(["x", "t", "1", "2.5", "0.125"])


@st.composite
def expr_strings(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(_expr_leaf)
    kind = draw(st.integers(0, 4))
    lhs = draw(expr_strings(depth=depth + 1))
    rhs = draw(expr_strings(depth=depth + 1))
    if kind == 0:
        op = draw(st.sampled_from(["+", "-", "*"]))
        return f"({lhs} {op} {rhs})"
    if kind == 1:
        return f"(-{lhs})"
    if kind == 2:
        fn = draw(st.sampled_from(["sin", "cos", "exp", "abs"]))
        return f"{fn}({lhs})"
    if kind == 3:
        fn = draw(st.sampled_from(["min", "max"]))
        return f"{fn}({lhs}, {rhs})"
    n = draw(st.integers(0, 3))
    return f"({lhs})^{n}"


@given(expr_strings())
@settings(max_examples=150, deadline=None)
def test_roundtrip_reparse_identical(source):
    tree = parse_expression(source)
    assert parse_expression(to_source(tree)) == tree


# ---------------------------------------------------------------------------
# Differential test against an independent shunting-yard evaluator
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "u-": 3, "^": 4}
_TOK = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|[A-Za-z_]\w*|\S")


def _shunting_yard_eval(source, t, x):
    """Reference evaluator: tokenize, convert to RPN, evaluate the RPN."""
    tokens = _TOK.findall(source)
    output, ops = [], []
    prev = None
    for tok in tokens:
        if re.fullmatch(r"\d.*|\.\d.*", tok):
            output.append(float(tok))
        elif tok in ("x", "t"):
            output.append(x if tok == "x" else t)
        elif tok in ("sin", "cos", "exp", "abs", "sqrt", "min", "max"):
            ops.append(tok)
        elif tok == ",":
            while ops and ops[-1] != "(":
                output.append(ops.pop())
        elif tok == "(":
            ops.append(tok)
        elif tok == ")":
            while ops and ops[-1] != "(":
                output.append(ops.pop())
            ops.pop()
            if ops and ops[-1] not in _PREC and ops[-1] != "(":
                output.append(ops.pop())
        else:
            op = tok
            if tok == "-" and prev in (None, "(", ",", "+", "-", "*", "/", "^"):
                op = "u-"
            while (
                ops and ops[-1] != "(" and ops[-1] in _PREC
                and (
                    _PREC[ops[-1]] > _PREC[op]
                    or (_PREC[ops[-1]] == _PREC[op] and op not in ("u-", "^"))
                )
            ):
                output.append(ops.pop())
            ops.append(op)
        prev = tok
    while ops:
        output.append(ops.pop())

    stack = []
    for item in output:
        if isinstance(item, float):
            stack.append(item)
        elif item == "u-":
            stack.append(-stack.pop())
        elif item in ("sin", "cos", "exp", "abs", "sqrt"):
            stack.append(getattr(math, item if item != "abs" else "fabs")(stack.pop()))
        elif item in ("min", "max"):
            b, a = stack.pop(), stack.pop()
            stack.append(min(a, b) if item == "min" else max(a, b))
        else:
            b, a = stack.pop(), stack.pop()
            if item == "+":
                stack.append(a + b)
            elif item == "-":
                stack.append(a - b)
            elif item == "*":
                stack.append(a * b)
            elif item == "/":
                stack.append(a / b)
            else:
                stack.append(a ** b)
    assert len(stack) == 1
    return stack[0]


def test_differential_against_shunting_yard():
    rng = np.random.Generator(np.random.Philox(key=20240811))
    leaves = ["x", "t", "2", "0.5", "1.25", "3"]
    ops = ["+", "-", "*"]
    fns = ["sin", "cos", "exp", "abs"]

    def gen(depth):
        if depth == 0 or rng.random() < 0.3:
            return leaves[rng.integers(len(leaves))]
        roll = rng.random()
        if roll < 0.45:
            return f"{gen(depth - 1)} {ops[rng.integers(3)]} {gen(depth - 1)}"
        if roll < 0.6:
            return f"-{gen(depth - 1)}"
        if roll < 0.75:
            return f"{fns[rng.integers(4)]}({gen(depth - 1)})"
        if roll < 0.9:
            return f"({gen(depth - 1)}) * ({gen(depth - 1)})"
        return f"({gen(depth - 1)})^{rng.integers(0, 4)}"

    checked = 0
    while checked < 50:
        source = gen(4)
        t, x = float(rng.uniform(0, 1)), float(rng.uniform(-2, 2))
        try:
            mine = float(evaluate(parse_expression(source), EvalContext(t, x)))
        except ExpressionDomainError:
            continue
        ref = _shunting_yard_eval(source, t, x)
        assert mine == pytest.approx(ref, rel=1e-12, abs=1e-12), source
        checked += 1

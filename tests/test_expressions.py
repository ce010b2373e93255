"""Expression language: precedence, errors with positions, and reference checks."""

import copy
import dataclasses
import math
import pickle
import re
import types
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from thermistor.expressions import (
    BinOp,
    Call,
    EvalError,
    Expr,
    Neg,
    Num,
    ParseError,
    Var,
    _Body,
    parse_expr,
)

# the reference's own function tables, so that it shares no code with the
# compiled path it checks
_REFERENCE_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt, "abs": abs}
_REFERENCE_NUMPY = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs}


@dataclass(frozen=True)
class _Ctx:
    t: object
    u: object
    source: str
    scalar: bool


def _reference_eval(e, t, u):
    """Walk the tree node by node, checking each node's value as it is made
    and raising at the first one that is not finite: the evaluator the
    generated functions replaced, and the checked array evaluation that
    ``Expr.array`` defers its checks against.

    The compiled path must return bit-identical values, or raise the same
    error with the same span and message.
    """
    scalar = not (isinstance(t, np.ndarray) or isinstance(u, np.ndarray))
    out = _reference_node(e, _Ctx(t, u, e.source, scalar))
    return float(out) if scalar else out


def _reference_check(node, ctx, value, detail):
    if ctx.scalar:
        ok = isinstance(value, float) and math.isfinite(value)
    else:
        ok = bool(np.all(np.isfinite(value)))
    if not ok:
        lo, hi = node.span
        raise EvalError((lo, hi), ctx.source[lo:hi], detail)
    return value


def _reference_node(node, ctx):
    if isinstance(node, Num):
        return node.value if ctx.scalar else np.float64(node.value)
    if isinstance(node, Var):
        val = ctx.t if node.name == "t" else ctx.u
        return float(val) if ctx.scalar else val
    if isinstance(node, Neg):
        return _reference_check(node, ctx, -_reference_node(node.operand, ctx), "negation overflowed")
    if isinstance(node, Call):
        av = _reference_node(node.arg, ctx)
        if ctx.scalar:
            try:
                out = float(_REFERENCE_MATH[node.func](av))
            except (ValueError, OverflowError):
                out = math.nan
        else:
            with np.errstate(all="ignore"):
                out = _REFERENCE_NUMPY[node.func](av)
        return _reference_check(node, ctx, out, f"{node.func} left its domain or overflowed")
    lv = _reference_node(node.left, ctx)
    rv = _reference_node(node.right, ctx)
    if ctx.scalar:
        try:
            if node.op == "+":
                out = lv + rv
            elif node.op == "-":
                out = lv - rv
            elif node.op == "*":
                out = lv * rv
            elif node.op == "/":
                out = lv / rv
            else:
                out = math.pow(lv, rv)
        except ZeroDivisionError:
            out = math.nan
        except (ValueError, OverflowError):
            out = math.nan
        out = float(out)
    else:
        with np.errstate(all="ignore"):
            if node.op == "+":
                out = lv + rv
            elif node.op == "-":
                out = lv - rv
            elif node.op == "*":
                out = lv * rv
            elif node.op == "/":
                out = np.divide(lv, rv)
            else:
                out = np.power(lv, rv)
    detail = {
        "+": "addition overflowed",
        "-": "subtraction overflowed",
        "*": "multiplication overflowed",
        "/": "division by zero or overflow",
        "^": "power left the real domain or overflowed",
    }[node.op]
    return _reference_check(node, ctx, out, detail)

# (source, t, u, expected) evaluated exactly unless noted
PRECEDENCE_CASES = [
    ("1+2*3", 0.0, 0.0, 7.0),
    ("(1+2)*3", 0.0, 0.0, 9.0),
    ("2^3^2", 0.0, 0.0, 512.0),
    ("(2^3)^2", 0.0, 0.0, 64.0),
    ("-2^2", 0.0, 0.0, -4.0),
    ("(-2)^2", 0.0, 0.0, 4.0),
    ("2^-3", 0.0, 0.0, 0.125),
    ("1-2-3", 0.0, 0.0, -4.0),
    ("12/4/3", 0.0, 0.0, 1.0),
    ("12/(4/2)", 0.0, 0.0, 6.0),
    ("2*-3", 0.0, 0.0, -6.0),
    ("-(1+2)", 0.0, 0.0, -3.0),
    ("--4", 0.0, 0.0, 4.0),
    (".5*4", 0.0, 0.0, 2.0),
    ("1e2/4", 0.0, 0.0, 25.0),
    ("2.5E1", 0.0, 0.0, 25.0),
    ("1/2^2", 0.0, 0.0, 0.25),
    ("1 + 2 * 3 ^ 2", 0.0, 0.0, 19.0),
    ("sin(0)", 0.0, 0.0, 0.0),
    ("cos(0)", 0.0, 0.0, 1.0),
    ("exp(0)", 0.0, 0.0, 1.0),
    ("sqrt(9)", 0.0, 0.0, 3.0),
    ("abs(-3.5)", 0.0, 0.0, 3.5),
    ("t + u", 2.0, 3.0, 5.0),
    ("t*u^2", 2.0, 3.0, 18.0),
    ("-t^2", 3.0, 0.0, -9.0),
    ("2 + sin(u)", 0.0, 0.0, 2.0),
]

# (source, offset of the failing token)
MALFORMED_CASES = [
    ("", 0),
    ("1+", 2),
    ("(1+2", 4),
    ("1+*2", 2),
    ("sin 1", 4),
    ("2t", 1),
    ("x+1", 0),
    ("1..2", 2),
    ("1 @ 2", 2),
    (")", 0),
    ("1+()", 3),
    ("sin(t", 5),
    ("^2", 0),
]


class TestPrecedence:
    @pytest.mark.parametrize("src, t, u, expected", PRECEDENCE_CASES)
    def test_scalar_evaluation(self, src, t, u, expected):
        assert parse_expr(src)(t, u) == expected

    @pytest.mark.parametrize("src, t, u, expected", PRECEDENCE_CASES)
    def test_array_evaluation_matches_scalar(self, src, t, u, expected):
        # constant-only expressions may collapse to a numpy scalar; anything
        # touching t or u must broadcast to the input shape
        e = parse_expr(src)
        out = e(np.full(3, t), np.full(3, u))
        assert np.all(np.asarray(out) == expected)

    def test_variable_expressions_broadcast(self):
        out = parse_expr("t + 0*u")(np.linspace(0.0, 1.0, 4), np.zeros(4))
        assert isinstance(out, np.ndarray)
        assert out.shape == (4,)

    def test_scalar_call_returns_builtin_float(self):
        out = parse_expr("t + 1")(1.0, 0.0)
        assert type(out) is float


class TestParseErrors:
    @pytest.mark.parametrize("src, offset", MALFORMED_CASES)
    def test_position_and_format(self, src, offset):
        with pytest.raises(ParseError) as exc:
            parse_expr(src)
        assert exc.value.offset == offset
        assert str(exc.value).startswith(f"parse error at byte {offset}: expected ")
        assert ", found " in str(exc.value)

    def test_function_call_needs_parenthesis(self):
        with pytest.raises(ParseError, match="'\\(' after function name 'sin'"):
            parse_expr("sin 1")

    def test_unknown_identifier_lists_alternatives(self):
        with pytest.raises(ParseError, match="variable \\(t, u\\)"):
            parse_expr("x+1")

    @pytest.mark.parametrize(
        "src, offset, literal",
        [("1e400", 0, "1e400"), ("u + 2e308*t", 4, "2e308"), ("1" + "0" * 309, 0, "1" + "0" * 309)],
        ids=["alone", "inside", "long"],
    )
    def test_non_finite_literal_is_a_parse_error(self, src, offset, literal):
        with pytest.raises(ParseError) as exc:
            parse_expr(src)
        assert exc.value.offset == offset
        assert str(exc.value) == (
            f"parse error at byte {offset}: expected a finite number, found number '{literal}'"
        )

    def test_underflowing_literal_is_zero(self):
        assert parse_expr("1e-400")(1.0, 0.0) == 0.0

    def test_never_other_exception_types(self):
        for src, _ in MALFORMED_CASES:
            try:
                parse_expr(src)
            except ParseError:
                pass


# Each shape k levels deep, its deepest accepted k, and the byte offset and
# token at which 5000 levels cross the limit: the 700th "+" of a sum makes
# its tree 701 levels high; the others open a 141st level of nesting.
_DEEP_SHAPES = {
    "sum": (lambda k: "+".join(["u"] * (k + 1)), 699, "1399: expected at most 700 levels of operators, found '+'"),
    "minus": (lambda k: "-" * k + "u", 140, "141: expected at most 140 levels of nesting, found '-'"),
    "power": (lambda k: "^".join(["u"] * (k + 1)), 140, "282: expected at most 140 levels of nesting, found identifier 'u'"),
    "parentheses": (lambda k: "(" * k + "u" + ")" * k, 140, "141: expected at most 140 levels of nesting, found '('"),
    "sin": (lambda k: "sin(" * k + "u" + ")" * k, 140, "564: expected at most 140 levels of nesting, found identifier 'sin'"),
}


class TestDepthLimit:
    @pytest.mark.parametrize("shape", list(_DEEP_SHAPES))
    def test_deep_shapes_are_parse_errors(self, shape):
        make, _, error = _DEEP_SHAPES[shape]
        with pytest.raises(ParseError) as exc:
            parse_expr(make(5000))
        assert str(exc.value) == f"parse error at byte {error}"

    @pytest.mark.parametrize("shape", list(_DEEP_SHAPES))
    def test_the_deepest_accepted_shapes_evaluate(self, shape):
        make, deepest, _ = _DEEP_SHAPES[shape]
        e = parse_expr(make(deepest))
        assert e.uses_u
        assert e(1.0, 1.0) == e(np.array([1.0]), np.array([1.0]))[0]
        with pytest.raises(ParseError):
            parse_expr(make(deepest + 1))


class TestEvalErrors:
    def test_division_by_zero_carries_span(self):
        e = parse_expr("1/(t-1)")
        with pytest.raises(EvalError) as exc:
            e(1.0, 0.0)
        assert exc.value.span == (0, 7)
        assert exc.value.snippet == "1/(t-1)"
        assert "division by zero" in str(exc.value)

    def test_array_path_raises_the_same_error(self):
        e = parse_expr("1/(t-1)")
        with pytest.raises(EvalError):
            e(np.array([1.0, 2.0]), np.zeros(2))

    def test_sqrt_domain(self):
        e = parse_expr("sqrt(0-4)")
        with pytest.raises(EvalError) as exc:
            e(0.0, 0.0)
        assert exc.value.span == (0, 9)
        assert exc.value.snippet == "sqrt(0-4)"
        assert "sqrt" in str(exc.value)

    def test_overflow_scalar_and_array(self):
        e = parse_expr("exp(t)")
        with pytest.raises(EvalError):
            e(1000.0, 0.0)
        with pytest.raises(EvalError):
            e(np.array([1.0, 1000.0]), np.zeros(2))

    def test_fractional_power_of_negative_base(self):
        e = parse_expr("(0-2)^0.5")
        with pytest.raises(EvalError, match="power"):
            e(0.0, 0.0)

    def test_inner_subexpression_is_blamed(self):
        e = parse_expr("1 + sqrt(t - 2)")
        with pytest.raises(EvalError) as exc:
            e(0.0, 0.0)
        assert exc.value.snippet == "sqrt(t - 2)"


class TestStructure:
    def test_equality_ignores_spans_and_whitespace(self):
        assert parse_expr("t + 1") == parse_expr("t+1")
        assert parse_expr("t + 1") != parse_expr("1 + t")
        assert parse_expr("sin(u)") == parse_expr("sin( u )")

    def test_tree_shapes(self):
        e = parse_expr("-2^2")
        assert isinstance(e, Neg)
        assert isinstance(e.operand, BinOp) and e.operand.op == "^"
        e2 = parse_expr("2^3^2")
        assert isinstance(e2, BinOp)
        assert isinstance(e2.right, BinOp)  # right-associative
        e3 = parse_expr("sin(t)")
        assert isinstance(e3, Call) and isinstance(e3.arg, Var)
        assert isinstance(parse_expr("4."), Num)

    def test_uses_u_flag(self):
        assert not parse_expr("t^2 + 1").uses_u
        assert parse_expr("sin(u)").uses_u
        assert parse_expr("t + 0*u").uses_u


@pytest.mark.parametrize("leaf, expected", [(Var("u"), True), (Var("t"), False)], ids=["u", "t"])
def test_uses_u_on_a_tree_deeper_than_the_recursion_limit(leaf, expected):
    # hand-built and left-deep, with the leaf at the bottom: the parser
    # accepts no tree this high
    tree = leaf
    for _ in range(3000):
        tree = BinOp("+", tree, Num(1.0))
    assert tree.uses_u is expected


# literals near the edges: subnormal, overflow-scale, the largest double,
# and exp's overflow threshold
_LITERALS = ["0", "1", "2", "0.5", "3", "1e-320", "1e-300", "1e300", "1.7976931348623157e308", "709.8"]
_POINTS = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 2.0, 1e-300, -1e300, 1e300, 710.0]


def _binop_text(parts):
    op, left, right, parens = parts
    # parentheses make negative bases and other-precedence operands reachable
    return f"({left}) {op} ({right})" if parens else f"{left}{op}{right}"


def _sources(*atoms):
    """Random expression texts over ``t``, ``u``, literals and ``atoms``."""
    return st.recursive(
        st.one_of(
            st.sampled_from(["t", "u", *atoms]),
            st.sampled_from(_LITERALS),
            st.floats(0.0, 100.0).map(repr),
        ),
        lambda children: st.one_of(
            # binary operators listed twice: they are half the draws
            st.tuples(st.sampled_from("+-*/^"), children, children, st.booleans()).map(_binop_text),
            st.tuples(st.sampled_from("+-*/^"), children, children, st.booleans()).map(_binop_text),
            st.tuples(st.sampled_from(sorted(_REFERENCE_MATH)), children).map(lambda c: f"{c[0]}({c[1]})"),
            children.map(lambda c: f"-{c}"),
        ),
        max_leaves=10,
    )


_SOURCES = _sources()
_SCALARS = st.one_of(st.sampled_from(_POINTS), st.floats(-10.0, 10.0))
_ARRAYS = st.lists(_SCALARS, min_size=3, max_size=3).map(np.array)
_INPUTS = st.one_of(
    st.tuples(_SCALARS, _SCALARS),
    st.tuples(_ARRAYS, _ARRAYS),
    st.tuples(_ARRAYS, _SCALARS),
    st.tuples(_SCALARS, _ARRAYS),
)


def _outcome(evaluate, e, t, u):
    try:
        return evaluate(e, t, u), None
    except Exception as err:  # compared below, type and message
        return None, err


class TestCompiledMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(src=_SOURCES, inputs=_INPUTS)
    @example(src="(-2)^0.5", inputs=(0.0, 0.0))
    @example(src="(0 - 8)^(1/3) + u", inputs=(np.zeros(3), np.ones(3)))
    @example(src="1/(t - 1) + sqrt(u)", inputs=(1.0, 4.0))
    @example(src="1/(t - 1) + sqrt(u)", inputs=(np.array([1.0, 2.0, 3.0]), -1.0))
    @example(src="1 + sqrt(t - 2)", inputs=(0.0, 0.0))
    @example(src="-(1.7976931348623157e308*2)", inputs=(0.0, 0.0))
    @example(src="exp(t)*abs(cos(sin(u)))", inputs=(710.0, np.ones(3)))
    @example(src="-u", inputs=(np.zeros(3), 0.0))
    def test_values_and_errors_match(self, src, inputs):
        e = parse_expr(src)
        t, u = inputs
        want, want_err = _outcome(_reference_eval, e, t, u)
        got, got_err = _outcome(lambda e, t, u: e(t, u), e, t, u)
        if want_err is not None:
            assert type(got_err) is type(want_err)
            assert str(got_err) == str(want_err)
            if isinstance(want_err, EvalError):
                assert (got_err.span, got_err.snippet) == (want_err.span, want_err.snippet)
            return
        assert got_err is None, got_err
        assert type(got) is type(want)
        got_arr, want_arr = np.asarray(got), np.asarray(want)
        assert got_arr.dtype == want_arr.dtype and got_arr.shape == want_arr.shape
        assert got_arr.tobytes() == want_arr.tobytes()


# sources rich in the operations that can hide a failure (_MASKING), and
# samples of one row or (rows, n) holding inf, NaN and zeros
_MASKING_SOURCES = _sources("1/u", "u^t", "exp(u)", "1/exp(1000*u)", "exp(0 - u*1e300*1e300)", "(u*1e300)^0")
_EDGES = [math.inf, -math.inf, math.nan, 0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 710.0]
_ELEMENTS = st.one_of(st.sampled_from(_EDGES), st.floats(-10.0, 10.0))


def _filled(shape):
    size = math.prod(shape)
    return st.lists(_ELEMENTS, min_size=size, max_size=size).map(lambda xs: np.array(xs).reshape(shape))


_SHAPED = st.sampled_from([(5,), (2, 5), (3, 4)]).flatmap(lambda shape: st.tuples(_filled(shape), _filled(shape)))


class TestArrayMode:
    """``Expr.array``, as the model's sampling calls it, against the checked
    node-by-node evaluation ``_reference_eval``."""

    @settings(max_examples=600, deadline=None)
    @given(src=_MASKING_SOURCES, inputs=_SHAPED)
    # exp(1000*u) overflows at u = 1 and 1/inf masks it to 2.0: the guard
    # sum is inf, so the checks run and name exp
    @example(src="2 + 1/exp(1000*u)", inputs=(np.linspace(1.0, 2.0, 5)[None], np.ones((1, 5))))
    @example(src="exp(0 - u*1e300*1e300)", inputs=(np.ones(5), np.ones(5)))
    @example(src="(u*1e300*1e300)^0", inputs=(np.ones((2, 5)), np.ones((2, 5))))
    # a finite guard, or finite values, whose sum passes the largest float:
    # the checks run and pass
    @example(src="1/(u*1e308)", inputs=(np.ones(5), np.ones(5)))
    @example(src="1/(u*1e-308)", inputs=(np.ones(5), np.ones(5)))
    @example(src="u + 1", inputs=(np.ones(5), np.array([1.0, math.nan, 0.0, math.inf, -1.0])))
    def test_matches_the_checked_reference(self, src, inputs):
        e = parse_expr(src)
        t, u = inputs
        want, want_err = _outcome(_reference_eval, e, t, u)
        with np.errstate(all="ignore"):
            got, got_err = _outcome(lambda e, t, u: e.array(t, u), e, t, u)
        if want_err is not None:
            assert type(got_err) is type(want_err)
            assert str(got_err) == str(want_err)
            return
        assert got_err is None, got_err
        assert type(got) is type(want)
        got_arr, want_arr = np.asarray(got), np.asarray(want)
        assert got_arr.dtype == want_arr.dtype and got_arr.shape == want_arr.shape
        assert got_arr.tobytes() == want_arr.tobytes()


class TestFloatMode:
    """``Expr.scalar``, as a call on floats and the oracle's checked pass run
    it, against the checked node-by-node evaluation ``_reference_eval``."""

    @settings(max_examples=600, deadline=None)
    @given(src=_MASKING_SOURCES, t=_ELEMENTS, u=_ELEMENTS)
    # exp(1000*u) raises at u = 1 and 1/inf would mask it to 2.0
    @example(src="2 + 1/exp(1000*u)", t=1.0, u=1.0)
    # a node that is not finite comes before one that raises: it is named
    @example(src="1/(u*1e308*10) + sqrt(0 - u)", t=1.0, u=1.0)
    @example(src="exp(0 - u*1e300*1e300)", t=1.0, u=1.0)
    @example(src="(u*1e300*1e300)^0", t=1.0, u=1.0)
    # a finite guard whose sum with the value passes the largest float
    @example(src="1/(u*1e308)", t=1.0, u=1.0)
    @example(src="u + 1", t=1.0, u=math.nan)
    def test_matches_the_checked_reference(self, src, t, u):
        e = parse_expr(src)
        want, want_err = _outcome(_reference_eval, e, t, u)
        got, got_err = _outcome(lambda e, t, u: e.scalar(t, u), e, t, u)
        if want_err is not None:
            assert type(got_err) is type(want_err)
            assert str(got_err) == str(want_err)
            return
        assert got_err is None, got_err
        assert type(got) is float and got.hex() == want.hex()


def _with_guard_test(e, finite, mode="array"):
    """The code of ``e.array``, or of ``e.scalar``, with ``finite`` in place
    of its guard's test, which it calls once with the guard sum plus the
    value (on arrays, the sum of its elements)."""
    fn = getattr(e, mode)
    return types.FunctionType(fn.__code__, dict(fn.__globals__, finite=finite))


class TestUncheckedArrayMode:
    """The array mode's value before its checks, as its guard's test sees it."""

    @settings(max_examples=400, deadline=None)
    @given(src=_SOURCES, inputs=st.one_of(
        st.tuples(_ARRAYS, _ARRAYS), st.tuples(_ARRAYS, _SCALARS), st.tuples(_SCALARS, _ARRAYS),
    ))
    # 1/inf and exp(-inf) mask an overflow that the guard holds
    @example(src="2 + 1/exp(1000*u)", inputs=(np.ones(3), np.ones(3)))
    @example(src="exp(0 - u*1e300*1e300)", inputs=(np.ones(3), np.ones(3)))
    @example(src="(u*1e300*1e300)^0", inputs=(np.ones(3), np.ones(3)))
    # a finite guard whose elements sum past the largest float
    @example(src="1/(u*1e308)", inputs=(np.ones(3), np.ones(3)))
    def test_finite_guard_and_value_mean_the_checked_value(self, src, inputs):
        e = parse_expr(src)
        t, u = inputs
        tests = []

        def finite(total):
            tests.append(math.isfinite(total))
            return tests[-1]

        with np.errstate(all="ignore"):
            value, err = _outcome(lambda e, t, u: _with_guard_test(e, finite)(t, u), e, t, u)
        want, want_err = _outcome(_reference_eval, e, t, u)
        assert len(tests) == 1
        if want_err is not None:
            assert isinstance(want_err, EvalError)
            assert not tests[0]
            return
        if tests[0]:
            # the test passed, so the checks were skipped: the same
            # operations in the same order give the checked value, bit for bit
            assert err is None, err
            assert type(value) is type(want)
            assert np.asarray(value).tobytes() == np.asarray(want).tobytes()


_PY_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_PY_NAMES = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt, "abs": abs}


def _cpython_eval(src, t, u):
    """Evaluate ``src`` with CPython's own parser, which shares no code with
    ``parse_expr``: ``^`` becomes ``**`` and each literal ``float('...')``.

    Python gives unary minus, ``**``, ``*``/``/`` and ``+``/``-`` the same
    precedence and associativity as the expression grammar.
    """
    text = _PY_NUMBER.sub(lambda m: f"float('{m.group()}')", src.replace("^", "**"))
    return eval(text, {"__builtins__": {"float": float}}, dict(_PY_NAMES, t=t, u=u))


class TestCPythonReference:
    """The parser against CPython: any value ``parse_expr(src)(t, u)``
    returns must be the float CPython computes from the same text."""

    @pytest.mark.parametrize("src, t, u, expected", PRECEDENCE_CASES)
    def test_precedence_cases_match(self, src, t, u, expected):
        e = parse_expr(src)
        for point in ((t, u), (1.5, 0.25)):
            assert e(*point).hex() == _cpython_eval(src, *point).hex()

    @settings(max_examples=500, deadline=None)
    @given(src=_SOURCES, t=_SCALARS, u=_SCALARS)
    @example(src="t/t*t", t=2.0, u=0.0)
    @example(src="2^3^2-1-1", t=0.0, u=0.0)
    @example(src="-t^2", t=3.0, u=0.0)
    def test_random_sources_match(self, src, t, u):
        try:
            got = parse_expr(src)(t, u)
        except EvalError:
            return
        assert got.hex() == _cpython_eval(src, t, u).hex()


# a float-mode template for Expr.inlined: the expression at (t, u) and at (t, u + 1)
_TEMPLATE = """\
def fn(t, u):
    guard = 0.0
    v = u + 1.0
    return f(t, u) + f(t, v), guard
"""


class TestCompiledCache:
    SRC = "t*(2 + sin(u)) / (1 + u^2)"
    TS = np.linspace(1.0, 2.0, 5)
    US = np.linspace(-1.0, 1.0, 5)

    def test_value_semantics_survive_evaluation(self):
        e = parse_expr(self.SRC)
        scalar = e(1.5, 0.25)
        array = e(self.TS, self.US)
        with np.errstate(all="ignore"):
            assert e.array(self.TS, self.US).tobytes() == array.tobytes()
        inlined = e.inlined(_TEMPLATE)(1.5, 0.25)
        # the guard holds the divisor (1 + u^2) of each call; u^2 has only leaves
        assert inlined == (scalar + e(1.5, 1.25), (1 + 0.25**2) + (1 + 1.25**2))
        fresh = parse_expr(self.SRC)
        assert e == fresh
        assert hash(e) == hash(fresh)
        assert repr(e) == repr(fresh)
        same = dataclasses.replace(e)
        assert same == e and repr(same) == repr(e)
        for other in (same, copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            # each copy drops the generated functions and builds its own
            assert (other._scalar_fn, other._array_fn, other._inlined_fn) == (None,) * 3
            assert other == e and repr(other) == repr(e)
            assert (other.span, other.source) == (e.span, e.source)
            assert other(1.5, 0.25) == scalar
            assert other(self.TS, self.US).tobytes() == array.tobytes()
            assert other.array is not e.array
            assert other.inlined(_TEMPLATE)(1.5, 0.25) == inlined
            assert other.inlined(_TEMPLATE) is not e.inlined(_TEMPLATE)

    def test_inlined_function_is_kept_per_template(self):
        e = parse_expr(self.SRC)
        fn = e.inlined(_TEMPLATE)
        assert e.inlined(_TEMPLATE) is fn
        other = _TEMPLATE.replace("u + 1.0", "u + 2.0")
        assert e.inlined(other)(1.5, 0.25) == (e(1.5, 0.25) + e(1.5, 2.25), (1 + 0.25**2) + (1 + 2.25**2))
        assert e.inlined(_TEMPLATE) is not fn

    def test_round_trip_keeps_error_spans(self):
        e = parse_expr("1 + 1/(t - 1)")
        with pytest.raises(EvalError) as before:
            e(1.0, 0.0)
        copied = pickle.loads(pickle.dumps(e))
        with pytest.raises(EvalError) as after:
            copied(np.ones(2), np.zeros(2))
        assert (after.value.span, str(after.value)) == (before.value.span, str(before.value))

    @pytest.mark.parametrize("first", ["scalar", "array"])
    def test_modes_do_not_disturb_each_other(self, first):
        e = parse_expr(self.SRC)
        scalar_ref = _reference_eval(e, 1.5, 0.25)
        array_ref = _reference_eval(e, self.TS, self.US)
        calls = [lambda: e(1.5, 0.25), lambda: e(self.TS, self.US)]
        if first == "array":
            calls.reverse()
        for _ in range(2):
            for call in calls:
                call()
        assert e(1.5, 0.25) == scalar_ref
        assert e(self.TS, self.US).tobytes() == array_ref.tobytes()

    def test_call_is_defined_once_on_the_base_class(self):
        # the benchmark's trace counts expression calls by wrapping Expr.__call__
        assert "__call__" in Expr.__dict__
        pending = list(Expr.__subclasses__())
        assert {Num, Var, Neg, BinOp, Call} <= set(pending)
        while pending:
            cls = pending.pop()
            assert "__call__" not in cls.__dict__, cls
            pending.extend(cls.__subclasses__())


class TestScalarFunction:
    """``Expr.scalar`` is the function a call on floats runs, without the dispatch."""

    @settings(max_examples=300, deadline=None)
    @given(src=_SOURCES, t=_SCALARS, u=_SCALARS)
    @example(src="1/(t - 1) + sqrt(u)", t=1.0, u=4.0)
    @example(src="(t) ^ (0.5)", t=-2.5, u=0.0)
    @example(src="-(1.7976931348623157e308*2)", t=0.0, u=0.0)
    def test_matches_the_call_bit_for_bit(self, src, t, u):
        e = parse_expr(src)
        # each side evaluates a copy of its own, so that neither reuses the
        # function the other generated
        copies = [
            lambda: parse_expr(src),
            lambda: pickle.loads(pickle.dumps(e)),
            lambda: dataclasses.replace(e, span=(0, 1)),
        ]
        assert callable(e.scalar)  # the pickled and replaced copies start from a generated e
        for make in copies:
            want, want_err = _outcome(lambda x, t, u: x(t, u), make(), t, u)
            got, got_err = _outcome(lambda x, t, u: x.scalar(t, u), make(), t, u)
            if want_err is not None:
                assert isinstance(want_err, EvalError)
                assert type(got_err) is EvalError
                assert (got_err.span, str(got_err)) == (want_err.span, str(want_err))
                continue
            assert got_err is None, got_err
            assert type(got) is float and got.hex() == want.hex()

    def test_replace_generates_its_own_function(self):
        e = parse_expr("1/(t - 1)")
        with pytest.raises(EvalError) as before:
            e.scalar(1.0, 0.0)
        moved = dataclasses.replace(e, span=(0, 1))
        assert moved.scalar is not e.scalar
        with pytest.raises(EvalError) as after:
            moved.scalar(1.0, 0.0)
        assert (before.value.span, after.value.span) == ((0, 9), (0, 1))
        assert after.value.snippet == "1"


# the names a generated function may use besides its own c<k> bindings
_FIXED_NAMES = {
    "EvalError", "OverflowError", "ValueError", "ZeroDivisionError",
    "all", "divide", "finite", "float", "isfinite", "nan", "power", "total",
}


class TestGeneratedFunction:
    def test_num_built_from_an_int_gives_a_float_in_each_mode(self):
        e = Num(2)
        out = e(0.0, 0.0)
        assert type(out) is float and out == 2.0
        out = e(np.zeros(3), np.zeros(3))
        assert type(out) is np.float64 and out == 2.0

    @pytest.mark.parametrize("src", ["t", "u"])
    def test_var_root_gives_a_builtin_float_for_numpy_scalars(self, src):
        out = parse_expr(src)(np.float64(1.5), np.float64(1.5))
        assert type(out) is float and out == 1.5

    def test_float_mode_holds_one_try(self, monkeypatch):
        defined = []
        define = _Body.define
        monkeypatch.setattr(_Body, "define", lambda body, lines: defined.append(lines) or define(body, lines))
        e = parse_expr("+".join(["u/(t+1)"] * 350))
        assert e.scalar(1.0, 2.0) == 350.0
        (lines,) = defined
        assert sum(line.strip() == "try:" for line in lines) == 1

    def test_long_sum_evaluates_in_both_modes(self):
        e = parse_expr("+".join(["u"] * 600))
        assert e(0.0, 0.5) == 300.0
        assert e(np.zeros(2), np.full(2, 0.5)).tolist() == [300.0, 300.0]

    @staticmethod
    def _assert_only_fixed_names(e):
        # each mode adds only its guard's start
        for mode in ("scalar", "array"):
            code = e._generate(mode).__code__
            assert set(code.co_consts) <= {None, 0.0}
            assert all(name in _FIXED_NAMES or re.fullmatch(r"c\d+", name) for name in code.co_names)
        # inlined, the code adds only the template's own constants and names
        code = e.inlined(_TEMPLATE).__code__
        assert set(code.co_consts) <= {None, 0.0, 1.0}
        assert all(name in _FIXED_NAMES or re.fullmatch(r"c\d+", name) for name in code.co_names)

    @settings(max_examples=200, deadline=None)
    @given(src=_SOURCES)
    def test_no_source_text_reaches_the_generated_code(self, src):
        self._assert_only_fixed_names(parse_expr(src))

    def test_no_variable_name_reaches_the_generated_code(self):
        self._assert_only_fixed_names(BinOp("+", Var("__import__"), Num(1.0)))

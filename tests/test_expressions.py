"""Expression language: precedence, errors with positions, and reference checks."""

import copy
import dataclasses
import math
import pickle
import re
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
    """Walk the tree node by node: the evaluator the generated functions replaced.

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


# literals near the edges: subnormal, overflow-scale, the largest double,
# and exp's overflow threshold
_LITERALS = ["0", "1", "2", "0.5", "3", "1e-320", "1e-300", "1e300", "1.7976931348623157e308", "709.8"]
_POINTS = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 2.0, 1e-300, -1e300, 1e300, 710.0]


def _binop_text(parts):
    op, left, right, parens = parts
    # parentheses make negative bases and other-precedence operands reachable
    return f"({left}) {op} ({right})" if parens else f"{left}{op}{right}"


_SOURCES = st.recursive(
    st.one_of(
        st.sampled_from(["t", "u"]),
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


class TestCompiledCache:
    SRC = "t*(2 + sin(u)) / (1 + u^2)"
    TS = np.linspace(1.0, 2.0, 5)
    US = np.linspace(-1.0, 1.0, 5)

    def test_value_semantics_survive_evaluation(self):
        e = parse_expr(self.SRC)
        scalar = e(1.5, 0.25)
        array = e(self.TS, self.US)
        fresh = parse_expr(self.SRC)
        assert e == fresh
        assert hash(e) == hash(fresh)
        assert repr(e) == repr(fresh)
        same = dataclasses.replace(e)
        assert same == e and repr(same) == repr(e)
        for other in (same, copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert other == e and repr(other) == repr(e)
            assert (other.span, other.source) == (e.span, e.source)
            assert other(1.5, 0.25) == scalar
            assert other(self.TS, self.US).tobytes() == array.tobytes()

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
    "all", "divide", "float", "isfinite", "nan", "power",
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

    def test_long_sum_evaluates_in_both_modes(self):
        e = parse_expr("+".join(["u"] * 600))
        assert e(0.0, 0.5) == 300.0
        assert e(np.zeros(2), np.full(2, 0.5)).tolist() == [300.0, 300.0]

    @staticmethod
    def _assert_only_fixed_names(e):
        for fn in (e._generate(scalar=True), e._generate(scalar=False)):
            code = fn.__code__
            assert code.co_consts == (None,)
            assert all(name in _FIXED_NAMES or re.fullmatch(r"c\d+", name) for name in code.co_names)

    @settings(max_examples=200, deadline=None)
    @given(src=_SOURCES)
    def test_no_source_text_reaches_the_generated_code(self, src):
        self._assert_only_fixed_names(parse_expr(src))

    def test_no_variable_name_reaches_the_generated_code(self):
        self._assert_only_fixed_names(BinOp("+", Var("__import__"), Num(1.0)))

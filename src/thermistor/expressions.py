"""Small expression language for source terms and tube profiles.

Grammar (EBNF, whitespace between tokens ignored):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := NUMBER | "t" | "u" | FUNC "(" expr ")" | "(" expr ")"
    FUNC   := "sin" | "cos" | "exp" | "sqrt" | "abs"

"^" is right-associative and binds tighter than unary minus, so
``-2^2 = -4`` and ``2^3^2 = 512``.  There is no implicit multiplication.
An expression's tree, each operator and function call one level above
its operands, is at most 700 levels high (``_MAX_DEPTH``), so a sum has
at most 700 terms; and no operand sits inside more than 140
(``_MAX_DEPTH // 5``) parentheses, function calls, unary minuses and
"^", as the parser recurses through up to five rules for each.  A deeper
expression is a ParseError at the byte offset of the token that crosses
the limit, so parsing and evaluation nest at most about 700 Python calls,
well inside the default recursion limit of 1000.
Numbers accept decimal and scientific notation and must be finite: a
literal that overflows a float, such as ``1e400``, is a parse error.
Parse errors are positioned by byte offset; evaluation errors (division
by zero, sqrt of a negative, overflow) carry the source span of the
offending subexpression instead of leaking NaNs.  On its first call in
each evaluation mode (Python floats or numpy arrays) a tree generates one
Python function.  In the float mode, ``Expr.scalar``, each node checks its
own value and raises its own error.  The array mode, ``Expr.array``, which
every array caller runs, does the operations unchecked and tests one sum,
of the value and a guard (``_MASKING``); only when that is not finite does
it run the nodes' checks, in the same order, and raise the first failing
node's error.  ``Expr.inlined``
generates a caller's float-mode template, the oracle's RK4 pass, with the
tree's code unchecked at each call and one guard sum for the caller to test
at the end in place of the per-node checks; ``_Body.bound`` defines the
same template calling a checked ``f`` instead.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "BinOp",
    "Call",
    "EvalError",
    "Expr",
    "Neg",
    "Num",
    "ParseError",
    "Var",
    "parse_expr",
]

_FUNCS_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt, "abs": abs}
_FUNCS_NUMPY = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs}
_VARIABLES = ("t", "u")


class ParseError(ValueError):
    """Syntax error with a byte offset into the source text."""

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(f"parse error at byte {offset}: expected {expected}, found {found}")


class EvalError(ValueError):
    """Domain error during evaluation, tagged with the source span."""

    def __init__(self, span: tuple[int, int], snippet: str, detail: str):
        self.span = span
        self.snippet = snippet
        super().__init__(
            f"evaluation error at bytes {span[0]}..{span[1]} ('{snippet}'): {detail}"
        )


# Each op node's Python template and the detail of its EvalError.
_OPS = {
    "+": ("{} + {}", "addition overflowed"),
    "-": ("{} - {}", "subtraction overflowed"),
    "*": ("{} * {}", "multiplication overflowed"),
    "/": ("divide({}, {})", "division by zero or overflow"),
    "^": ("power({}, {})", "power left the real domain or overflowed"),
}
# The fixed names of a generated function, per evaluation mode: Python
# floats through ``math`` (scalar) or numpy ufuncs (array).  ``total`` is
# ``np.add.reduce``, called with axis None, which skips ``np.sum``'s dispatch.
_ARRAY_NAMES = {
    "EvalError": EvalError, "isfinite": np.isfinite, "finite": math.isfinite,
    "divide": np.divide, "power": np.power, "total": np.add.reduce,
}
_SCALAR_NAMES = dict(_ARRAY_NAMES, isfinite=math.isfinite, nan=math.nan, divide=operator.truediv, power=math.pow)
# The operations that can turn a non-finite operand into a finite value, and
# which of their operands can (IEEE 754-2019, section 6): x / +-inf is +-0,
# pow(1, nan), pow(nan, 0) and pow(inf, -1) are finite, and exp(-inf) is 0.
# Every other operation maps a non-finite operand to a non-finite value (inf
# and NaN survive + - * and unary minus, abs, sqrt, sin and cos) or raises
# (sin or cos of inf, sqrt of -inf, division by zero).  So inlined code,
# which does the float-mode operations in the same order without the checks,
# agrees with the checked code up to the first node whose check fails.  There
# the operation raises in both, or its value is not finite, and so is the
# value of each node above it up to the value of f, unless one raises or takes
# it as an operand listed here, which the code adds to its guard sum.  Literals
# and variables have no check of their own, so they need no place in the guard.
# In the array mode the same holds element by element, as numpy's operations
# act on each element alone and raise nothing with its warnings off; the guard
# sum then adds up all the elements of each listed operand, and the value's
# elements are added at the end.
_MASKING = {"/": (False, True), "^": (True, True), "exp": (True,)}
# A call of the expression in an inlined template, f(t, u), with t and u plain names.
_CALL = re.compile(r"\bf\((\w+), (\w+)\)")


class _Body:
    """The lines of one generated function: node values are locals ``x<k>``,
    and literals, functions and error arguments are bound as ``c<k>`` in its
    namespace, so no source text reaches ``exec``.

    In the ``"scalar"`` mode the function is ``fn(t, u)`` and each node
    checks its own value.  Elsewhere ``mask`` builds the guard sum: in the
    ``"array"`` mode, ``fn(t, u)`` on arrays, whose checks wait in ``checks``
    behind the guard's test, and ``"inlined"``, unchecked, where the nodes
    are the calls in a float-mode template (``at`` set, by ``inline``).
    """

    def __init__(self, source: str, mode: str):
        self.source = source
        self.mode = mode
        self.scalar = mode != "array"  # on Python floats: the scalar and inlined modes
        self.names = dict(_ARRAY_NAMES if mode == "array" else _SCALAR_NAMES)
        self.lines: list[str] = []
        self.checks: list[str] = []  # the array mode's checks, in the order the float mode makes them
        self.at: tuple[str, str] | None = None  # the names of t and u at an inlined call

    def define(self, lines: list[str]):
        """Execute ``lines``, the source of one function ``fn``, in the
        namespace; return ``fn``."""
        exec("".join(f"{line}\n" for line in lines), self.names)
        return self.names["fn"]

    @classmethod
    def bound(cls, template: str, f):
        """``template``, as ``Expr.inlined`` takes it, with each call ``f(t, u)``
        a call of the callable ``f``, which checks its own values."""
        body = cls("", "scalar")
        body.names["f"] = f
        return body.define(template.splitlines())

    def bind(self, obj) -> str:
        name = f"c{len(self.names)}"
        self.names[name] = obj
        return name

    def let(self, expr: str) -> str:
        name = f"x{len(self.lines)}"
        self.lines.append(f"{name} = {expr}")
        return name

    def check(self, node: Expr, expr: str, detail: str) -> str:
        """Emit ``node``'s operation and its finiteness check: in the scalar
        mode the operation in its own try, in the array mode the check into
        ``checks``, and inlined the operation alone.

        The children's lines come first, outside the try: their EvalErrors
        are ValueErrors and must not be taken for this node's own.
        """
        if self.mode == "inlined":
            return self.let(expr)
        lo, hi = node.span
        error = self.bind(((lo, hi), self.source[lo:hi], detail))
        if self.mode == "array":
            name = self.let(expr)
            self.checks += [f"if not isfinite({name}).all():", f"    raise EvalError(*{error})"]
            return name
        name = f"x{len(self.lines)}"
        self.lines += [
            "try:",
            f"    {name} = {expr}",
            "except (ZeroDivisionError, ValueError, OverflowError):",
            f"    {name} = nan",
            f"if not isfinite({name}):",
            f"    raise EvalError(*{error})",
        ]
        return name

    def mask(self, op: str, *operands: tuple[Expr, str]) -> None:
        """Outside the scalar mode, add to ``guard`` each of ``op``'s
        ``operands`` (node, value name) that ``_MASKING`` lists and a node
        computes; in the array mode, the sum of its elements."""
        if self.mode != "scalar":
            term = "{}" if self.scalar else "total({}, None)"
            masked = zip(_MASKING.get(op, ()), operands)
            self.lines += [
                f"guard += {term.format(name)}" for m, (node, name) in masked if m and not isinstance(node, (Num, Var))
            ]

    def inline(self, expr: Expr, template: str) -> list[str]:
        """The lines of ``template`` with each call ``f(t, u)`` replaced by the
        name of ``expr``'s value there, which its inlined code, on the lines
        just above, computes from the names ``t`` and ``u``."""
        lines = []
        for line in template.splitlines():
            indent = line[: len(line) - len(line.lstrip())]
            while call := _CALL.search(line):
                start, self.at = len(self.lines), call.groups()
                value = expr._emit(self)
                lines += [indent + code for code in self.lines[start:]]
                line = line[: call.start()] + value + line[call.end() :]
            lines.append(line)
        return lines


@dataclass(frozen=True)
class Expr:
    """Parsed expression in the variables t and u.

    A call gives the value, or raises the EvalError of the first node, in
    evaluation order, whose value is not finite: on floats through
    ``scalar``, on arrays through ``array``.
    """

    # where the node sits in the parsed text, for error messages only
    span: tuple[int, int] = field(default=(0, 0), compare=False, kw_only=True)
    source: str = field(default="", compare=False, kw_only=True)
    # functions generated on the first call in each mode, and the inlined
    # template with its function; see __getstate__
    _scalar_fn = None
    _array_fn = None
    _inlined_fn = None

    def __call__(self, t, u):
        """Evaluate at scalars or broadcastable numpy arrays."""
        if isinstance(t, np.ndarray) or isinstance(u, np.ndarray):
            with np.errstate(all="ignore"):
                return self.array(t, u)
        return self.scalar(t, u)

    @property
    def scalar(self):
        """The generated float-mode function ``fn(t, u)``, which is what a
        call on scalars runs, without the dispatch; built on first use."""
        return self._scalar_fn or self._generate("scalar")

    @property
    def array(self):
        """The generated array-mode function ``fn(t, u)``, which is what a
        call on arrays runs, without the dispatch; built on first use.

        Its caller turns numpy's warnings off, so that no operation raises
        or warns.  When the guard sum plus the sum of the value is finite, no
        node's check could fail (``_MASKING`` says why), and the value is
        returned; otherwise the checks run, in the order the float mode makes
        them, and the first to fail raises its node's EvalError.
        """
        return self._array_fn or self._generate("array")

    def _generate(self, mode: str):
        # error snippets slice the source of the expression being called
        body = _Body(self.source, mode)
        value = self._emit(body)
        if mode == "scalar":
            lines = [*body.lines, f"return {value}"]
        else:
            test = [f"if finite(guard + total({value}, None)):", f"    return {value}"]
            lines = ["guard = 0.0", *body.lines, *test, *body.checks, f"return {value}"]
        fn = body.define(["def fn(t, u):", *(f"    {line}" for line in lines)])
        object.__setattr__(self, f"_{mode}_fn", fn)
        return fn

    def inlined(self, template: str):
        """``template``, the source of a float-mode function ``fn`` with a
        local ``guard = 0.0``, with this expression's code, unchecked, in place
        of each call ``f(t, u)`` (``t`` and ``u`` plain names); built on first
        use and kept for the last template.  The template must not use the
        names ``x<k>``, ``c<k>`` or those of ``_SCALAR_NAMES``.

        If ``fn`` raises no ZeroDivisionError, ValueError or OverflowError and
        ``guard`` and every value of a call stay finite, the float-mode
        function would have raised nothing and given the same values
        (``_MASKING`` says why).  The oracle's ``solver._RK4_PASS`` returns
        ``guard`` plus its last value and its last sample, which every value
        of a call reaches, so that one finite sum covers the whole pass.
        """
        cached = self._inlined_fn
        if cached is None or cached[0] is not template:
            body = _Body(self.source, "inlined")
            cached = template, body.define(body.inline(self, template))
            object.__setattr__(self, "_inlined_fn", cached)
        return cached[1]

    def __getstate__(self):
        # the generated functions are a cache, and they do not pickle
        state = dict(self.__dict__)
        state.pop("_scalar_fn", None)
        state.pop("_array_fn", None)
        state.pop("_inlined_fn", None)
        return state

    def _emit(self, body: _Body) -> str:
        """Append this node's lines to ``body``; return the name of its value."""
        raise NotImplementedError

    @property
    def uses_u(self) -> bool:
        return any(isinstance(node, Var) and node.name == "u" for node in self._walk())

    def _walk(self):
        yield self
        for value in vars(self).values():
            if isinstance(value, Expr):
                yield from value._walk()


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def _emit(self, body: _Body) -> str:
        return body.bind(float(self.value) if body.scalar else np.float64(self.value))


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def _emit(self, body: _Body) -> str:
        if body.at:  # the template's names, which hold floats
            return body.at[self.name == "u"]
        name = "t" if self.name == "t" else "u"
        return body.let(f"float({name})") if body.scalar else name


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr

    def _emit(self, body: _Body) -> str:
        return body.check(self, "-" + self.operand._emit(body), "negation overflowed")


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def _emit(self, body: _Body) -> str:
        template, detail = _OPS[self.op]
        left = self.left._emit(body)
        right = self.right._emit(body)
        body.mask(self.op, (self.left, left), (self.right, right))
        return body.check(self, template.format(left, right), detail)


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr

    def _emit(self, body: _Body) -> str:
        arg = self.arg._emit(body)
        body.mask(self.func, (self.arg, arg))
        fn = body.bind((_FUNCS_MATH if body.scalar else _FUNCS_NUMPY)[self.func])
        return body.check(self, f"{fn}({arg})", f"{self.func} left its domain or overflowed")


_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPERATORS = set("+-*/^()")
# How high an expression's tree may be; see the grammar above.
_MAX_DEPTH = 700


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "ident" | "op" | "end"
    text: str
    pos: int

    def describe(self) -> str:
        if self.kind == "number":
            return f"number '{self.text}'"
        if self.kind == "ident":
            return f"identifier '{self.text}'"
        if self.kind == "end":
            return "end of input"
        return f"'{self.text}'"


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(src):
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        m = _NUMBER_RE.match(src, i)
        if m:
            tokens.append(_Token("number", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(src, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        raise ParseError(i, "a number, name, operator, or parenthesis", f"character '{c}'")
    tokens.append(_Token("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0  # the open calls of factor

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: str) -> ParseError:
        tok = self.peek()
        return ParseError(tok.pos, expected, tok.describe())

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def expect_op(self, op: str, expected: str) -> _Token:
        if not self.at_op(op):
            raise self.fail(expected)
        return self.advance()

    def parse(self) -> Expr:
        node, _ = self.expr()
        if self.peek().kind != "end":
            raise self.fail("end of input or an operator")
        return node

    def above(self, at: _Token, *heights: int) -> int:
        """The height of a node at ``at`` over parts of these heights; a
        ParseError at ``at`` if it exceeds _MAX_DEPTH."""
        height = 1 + max(heights)
        if height > _MAX_DEPTH:
            raise ParseError(at.pos, f"at most {_MAX_DEPTH} levels of operators", at.describe())
        return height

    # Each method returns its node and the height of the node's tree.
    def expr(self) -> tuple[Expr, int]:
        node, height = self.term()
        while self.at_op("+", "-"):
            op = self.advance()
            rhs, rhs_height = self.term()
            height = self.above(op, height, rhs_height)
            node = BinOp(op.text, node, rhs, span=(node.span[0], rhs.span[1]), source=self.src)
        return node, height

    def term(self) -> tuple[Expr, int]:
        node, height = self.factor()
        while self.at_op("*", "/"):
            op = self.advance()
            rhs, rhs_height = self.factor()
            height = self.above(op, height, rhs_height)
            node = BinOp(op.text, node, rhs, span=(node.span[0], rhs.span[1]), source=self.src)
        return node, height

    def factor(self) -> tuple[Expr, int]:
        # every recursion of the parser passes here, and each open call of
        # factor holds at most five rules on the stack
        if self.depth > _MAX_DEPTH // 5:
            raise self.fail(f"at most {_MAX_DEPTH // 5} levels of nesting")
        self.depth += 1
        if self.at_op("-"):
            minus = self.advance()
            operand, height = self.factor()
            result = Neg(operand, span=(minus.pos, operand.span[1]), source=self.src), self.above(minus, height)
        else:
            result = self.power()
        self.depth -= 1
        return result

    def power(self) -> tuple[Expr, int]:
        base, height = self.atom()
        if self.at_op("^"):
            caret = self.advance()
            exponent, exponent_height = self.factor()
            span = (base.span[0], exponent.span[1])
            return BinOp("^", base, exponent, span=span, source=self.src), self.above(caret, height, exponent_height)
        return base, height

    def atom(self) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind == "number":
            value = float(tok.text)
            if not math.isfinite(value):
                raise self.fail("a finite number")
            self.advance()
            return Num(value, span=(tok.pos, tok.pos + len(tok.text)), source=self.src), 1
        if tok.kind == "ident":
            self.advance()
            if tok.text in _VARIABLES:
                return Var(tok.text, span=(tok.pos, tok.pos + len(tok.text)), source=self.src), 1
            if tok.text in _FUNCS_MATH:
                self.expect_op("(", f"'(' after function name '{tok.text}'")
                arg, height = self.expr()
                close = self.expect_op(")", "')'")
                return Call(tok.text, arg, span=(tok.pos, close.pos + 1), source=self.src), self.above(tok, height)
            raise ParseError(
                tok.pos,
                "a variable (t, u) or function name (sin, cos, exp, sqrt, abs)",
                tok.describe(),
            )
        if self.at_op("("):
            opener = self.advance()
            node, height = self.expr()
            close = self.expect_op(")", "')'")
            # widen the span over the parens so error snippets stay balanced
            return replace(node, span=(opener.pos, close.pos + 1)), height
        raise self.fail("an operand")


def parse_expr(src: str) -> Expr:
    """Parse ``src`` into an expression tree.

    Raises ParseError with the byte offset of the first offending token.
    """
    return _Parser(src).parse()

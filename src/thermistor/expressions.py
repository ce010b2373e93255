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
Numbers accept decimal and scientific notation and must be finite: a
literal that overflows a float, such as ``1e400``, is a parse error.
Parse errors are positioned by byte offset; evaluation errors (division
by zero, sqrt of a negative, overflow) carry the source span of the
offending subexpression instead of leaking NaNs.  On its first call in
each evaluation mode (Python floats or numpy arrays) a tree generates one
Python function, in which each node checks its own value and raises its
own error.  ``Expr.scalar`` is the float-mode function itself, for loops
that call it many times without the dispatch of ``Expr.__call__``.
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
# floats through ``math`` (scalar) or numpy ufuncs (array).
_ARRAY_NAMES = {"EvalError": EvalError, "isfinite": np.isfinite, "divide": np.divide, "power": np.power}
_SCALAR_NAMES = dict(_ARRAY_NAMES, isfinite=math.isfinite, nan=math.nan, divide=operator.truediv, power=math.pow)


class _Body:
    """The lines of one generated function ``fn(t, u)``: node values are locals
    ``x<k>``, and literals, functions and error arguments are bound as ``c<k>``
    in its namespace, so no source text reaches ``exec``."""

    def __init__(self, source: str, scalar: bool):
        self.source = source
        self.scalar = scalar
        self.names = dict(_SCALAR_NAMES if scalar else _ARRAY_NAMES)
        self.lines: list[str] = []

    def bind(self, obj) -> str:
        name = f"c{len(self.names)}"
        self.names[name] = obj
        return name

    def let(self, expr: str) -> str:
        name = f"x{len(self.lines)}"
        self.lines.append(f"{name} = {expr}")
        return name

    def check(self, node: Expr, expr: str, detail: str) -> str:
        """Emit ``node``'s operation in its own try, then its finiteness check.

        The children's lines come first, outside the try: their EvalErrors
        are ValueErrors and must not be taken for this node's own.
        """
        lo, hi = node.span
        error = self.bind(((lo, hi), self.source[lo:hi], detail))
        if self.scalar:
            name = f"x{len(self.lines)}"
            self.lines += [
                "try:",
                f"    {name} = {expr}",
                "except (ZeroDivisionError, ValueError, OverflowError):",
                f"    {name} = nan",
                f"if not isfinite({name}):",
            ]
        else:
            name = self.let(expr)
            self.lines.append(f"if not isfinite({name}).all():")
        self.lines.append(f"    raise EvalError(*{error})")
        return name


@dataclass(frozen=True)
class Expr:
    """Parsed expression in the variables t and u."""

    # where the node sits in the parsed text, for error messages only
    span: tuple[int, int] = field(default=(0, 0), compare=False, kw_only=True)
    source: str = field(default="", compare=False, kw_only=True)
    # functions generated on the first call in each mode; see __getstate__
    _scalar_fn = None
    _array_fn = None

    def __call__(self, t, u):
        """Evaluate at scalars or broadcastable numpy arrays."""
        if isinstance(t, np.ndarray) or isinstance(u, np.ndarray):
            fn = self._array_fn or self._generate(scalar=False)
            with np.errstate(all="ignore"):
                return fn(t, u)
        return self.scalar(t, u)

    @property
    def scalar(self):
        """The generated float-mode function ``fn(t, u)``, which is what a
        call on scalars runs, without the dispatch; built on first use."""
        return self._scalar_fn or self._generate(scalar=True)

    def _generate(self, scalar: bool):
        # error snippets slice the source of the expression being called
        body = _Body(self.source, scalar)
        body.lines.append(f"return {self._emit(body)}")
        exec("def fn(t, u):\n" + "".join(f"    {line}\n" for line in body.lines), body.names)
        fn = body.names["fn"]
        object.__setattr__(self, "_scalar_fn" if scalar else "_array_fn", fn)
        return fn

    def __getstate__(self):
        # the generated functions are a cache, and they do not pickle
        state = dict(self.__dict__)
        state.pop("_scalar_fn", None)
        state.pop("_array_fn", None)
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
        return body.check(self, template.format(left, self.right._emit(body)), detail)


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr

    def _emit(self, body: _Body) -> str:
        arg = self.arg._emit(body)
        fn = body.bind((_FUNCS_MATH if body.scalar else _FUNCS_NUMPY)[self.func])
        return body.check(self, f"{fn}({arg})", f"{self.func} left its domain or overflowed")


_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPERATORS = set("+-*/^()")


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
        node = self.expr()
        if self.peek().kind != "end":
            raise self.fail("end of input or an operator")
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.at_op("+", "-"):
            op = self.advance().text
            rhs = self.term()
            node = BinOp(op, node, rhs, span=(node.span[0], rhs.span[1]), source=self.src)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.at_op("*", "/"):
            op = self.advance().text
            rhs = self.factor()
            node = BinOp(op, node, rhs, span=(node.span[0], rhs.span[1]), source=self.src)
        return node

    def factor(self) -> Expr:
        if self.at_op("-"):
            minus = self.advance()
            operand = self.factor()
            return Neg(operand, span=(minus.pos, operand.span[1]), source=self.src)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.at_op("^"):
            self.advance()
            exponent = self.factor()
            return BinOp("^", base, exponent, span=(base.span[0], exponent.span[1]), source=self.src)
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            value = float(tok.text)
            if not math.isfinite(value):
                raise self.fail("a finite number")
            self.advance()
            return Num(value, span=(tok.pos, tok.pos + len(tok.text)), source=self.src)
        if tok.kind == "ident":
            self.advance()
            if tok.text in _VARIABLES:
                return Var(tok.text, span=(tok.pos, tok.pos + len(tok.text)), source=self.src)
            if tok.text in _FUNCS_MATH:
                self.expect_op("(", f"'(' after function name '{tok.text}'")
                arg = self.expr()
                close = self.expect_op(")", "')'")
                return Call(tok.text, arg, span=(tok.pos, close.pos + 1), source=self.src)
            raise ParseError(
                tok.pos,
                "a variable (t, u) or function name (sin, cos, exp, sqrt, abs)",
                tok.describe(),
            )
        if self.at_op("("):
            opener = self.advance()
            node = self.expr()
            close = self.expect_op(")", "')'")
            # widen the span over the parens so error snippets stay balanced
            return replace(node, span=(opener.pos, close.pos + 1))
        raise self.fail("an operand")


def parse_expr(src: str) -> Expr:
    """Parse ``src`` into an expression tree.

    Raises ParseError with the byte offset of the first offending token.
    """
    return _Parser(src).parse()

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
Numbers accept decimal and scientific notation.  Parse errors are
positioned by byte offset; evaluation errors (division by zero, sqrt of a
negative, overflow) carry the source span of the offending subexpression
instead of leaking NaNs.  A tree is compiled on its first call in each
evaluation mode (Python floats or numpy arrays) into one closure per node,
and each closure raises its node's error itself.
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
    "eval_expr",
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


# Each node compiles to a closure ``(t, u) -> value`` for one evaluation
# mode: Python floats through ``math`` (scalar) or numpy ufuncs (array).
_OPS_MATH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": math.pow}
_OPS_NUMPY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": np.divide, "^": np.power}
_OP_DETAILS = {
    "+": "addition overflowed",
    "-": "subtraction overflowed",
    "*": "multiplication overflowed",
    "/": "division by zero or overflow",
    "^": "power left the real domain or overflowed",
}

# precedence levels used for minimal re-parenthesisation
_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


class Expr:
    """Parsed expression in the variables t and u."""

    span: tuple[int, int]
    source: str
    # closures compiled on the first call in each mode; see __getstate__
    _scalar_fn = None
    _array_fn = None

    def __call__(self, t, u):
        """Evaluate at scalars or broadcastable numpy arrays."""
        if isinstance(t, np.ndarray) or isinstance(u, np.ndarray):
            fn = self._array_fn or self._compile_root(scalar=False)
            with np.errstate(all="ignore"):
                return fn(t, u)
        fn = self._scalar_fn or self._compile_root(scalar=True)
        return float(fn(t, u))

    def _compile_root(self, scalar: bool):
        # error snippets slice the source of the expression being called
        fn = self._compile(self.source, scalar)
        object.__setattr__(self, "_scalar_fn" if scalar else "_array_fn", fn)
        return fn

    def __getstate__(self):
        # the compiled closures are a cache, and closures do not pickle
        state = dict(self.__dict__)
        state.pop("_scalar_fn", None)
        state.pop("_array_fn", None)
        return state

    def _compile(self, source: str, scalar: bool):
        """Closure computing this node's value, raising its own EvalError."""
        raise NotImplementedError

    def _error_args(self, source: str, detail: str) -> tuple:
        lo, hi = self.span
        return (lo, hi), source[lo:hi], detail

    def _level(self) -> int:
        raise NotImplementedError

    def to_source(self) -> str:
        """Render back to text that reparses to a structurally equal tree."""
        raise NotImplementedError

    @property
    def uses_u(self) -> bool:
        return any(isinstance(node, Var) and node.name == "u" for node in self._walk())

    def _walk(self):
        yield self

    def _wrap(self, child: "Expr", min_level: int) -> str:
        text = child.to_source()
        return f"({text})" if child._level() < min_level else text


@dataclass(frozen=True, eq=True)
class Num(Expr):
    value: float
    span: tuple[int, int] = field(default=(0, 0), compare=False)
    source: str = field(default="", compare=False)

    def _compile(self, source: str, scalar: bool):
        value = self.value if scalar else np.float64(self.value)
        return lambda t, u: value

    def _level(self) -> int:
        return _LEVEL_ATOM if self.value >= 0 else _LEVEL_NEG

    def to_source(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, eq=True)
class Var(Expr):
    name: str
    span: tuple[int, int] = field(default=(0, 0), compare=False)
    source: str = field(default="", compare=False)

    def _compile(self, source: str, scalar: bool):
        if self.name == "t":
            return (lambda t, u: float(t)) if scalar else (lambda t, u: t)
        return (lambda t, u: float(u)) if scalar else (lambda t, u: u)

    def _level(self) -> int:
        return _LEVEL_ATOM

    def to_source(self) -> str:
        return self.name


@dataclass(frozen=True, eq=True)
class Neg(Expr):
    operand: Expr
    span: tuple[int, int] = field(default=(0, 0), compare=False)
    source: str = field(default="", compare=False)

    def _compile(self, source: str, scalar: bool):
        operand = self.operand._compile(source, scalar)
        error = self._error_args(source, "negation overflowed")
        if scalar:
            def neg(t, u):
                out = -operand(t, u)
                if isinstance(out, float) and math.isfinite(out):
                    return out
                raise EvalError(*error)
        else:
            def neg(t, u):
                out = -operand(t, u)
                if np.all(np.isfinite(out)):
                    return out
                raise EvalError(*error)
        return neg

    def _level(self) -> int:
        return _LEVEL_NEG

    def to_source(self) -> str:
        return "-" + self._wrap(self.operand, _LEVEL_NEG)

    def _walk(self):
        yield self
        yield from self.operand._walk()


@dataclass(frozen=True, eq=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr
    span: tuple[int, int] = field(default=(0, 0), compare=False)
    source: str = field(default="", compare=False)

    def _compile(self, source: str, scalar: bool):
        left = self.left._compile(source, scalar)
        right = self.right._compile(source, scalar)
        error = self._error_args(source, _OP_DETAILS[self.op])
        if scalar:
            apply = _OPS_MATH[self.op]

            def binop(t, u):
                # both children run outside the try: their EvalErrors are
                # ValueErrors and must not be taken for this node's own
                lv = left(t, u)
                rv = right(t, u)
                try:
                    out = apply(lv, rv)
                except (ZeroDivisionError, ValueError, OverflowError):
                    out = math.nan
                out = float(out)
                if math.isfinite(out):
                    return out
                raise EvalError(*error)
        else:
            apply = _OPS_NUMPY[self.op]

            def binop(t, u):
                out = apply(left(t, u), right(t, u))
                if np.all(np.isfinite(out)):
                    return out
                raise EvalError(*error)
        return binop

    def _level(self) -> int:
        if self.op in "+-":
            return _LEVEL_ADD
        if self.op in "*/":
            return _LEVEL_MUL
        return _LEVEL_POW

    def to_source(self) -> str:
        if self.op in "+-":
            return f"{self._wrap(self.left, _LEVEL_ADD)} {self.op} {self._wrap(self.right, _LEVEL_MUL)}"
        if self.op in "*/":
            return f"{self._wrap(self.left, _LEVEL_MUL)}{self.op}{self._wrap(self.right, _LEVEL_NEG)}"
        # right-associative power: the left side must be an atom
        return f"{self._wrap(self.left, _LEVEL_ATOM)}^{self._wrap(self.right, _LEVEL_NEG)}"

    def _walk(self):
        yield self
        yield from self.left._walk()
        yield from self.right._walk()


@dataclass(frozen=True, eq=True)
class Call(Expr):
    func: str
    arg: Expr
    span: tuple[int, int] = field(default=(0, 0), compare=False)
    source: str = field(default="", compare=False)

    def _compile(self, source: str, scalar: bool):
        arg = self.arg._compile(source, scalar)
        error = self._error_args(source, f"{self.func} left its domain or overflowed")
        if scalar:
            fn = _FUNCS_MATH[self.func]

            def call(t, u):
                av = arg(t, u)
                try:
                    out = float(fn(av))
                except (ValueError, OverflowError):
                    out = math.nan
                if math.isfinite(out):
                    return out
                raise EvalError(*error)
        else:
            fn = _FUNCS_NUMPY[self.func]

            def call(t, u):
                out = fn(arg(t, u))
                if np.all(np.isfinite(out)):
                    return out
                raise EvalError(*error)
        return call

    def _level(self) -> int:
        return _LEVEL_ATOM

    def to_source(self) -> str:
        return f"{self.func}({self.arg.to_source()})"

    def _walk(self):
        yield self
        yield from self.arg._walk()


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
            self.advance()
            return Num(float(tok.text), span=(tok.pos, tok.pos + len(tok.text)), source=self.src)
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


def eval_expr(e: Expr, t: float, u: float) -> float:
    """Evaluate a parsed expression at scalar (t, u)."""
    return float(e(float(t), float(u)))

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
each evaluation mode, on Python floats (``Expr.scalar``) or numpy arrays
(``Expr.array``), a tree generates one Python function.  It does the
operations unchecked and tests one sum, of the value and a guard
(``_MASKING``); only when that is not finite does it run the nodes'
checks, in evaluation order, and raise the first failing node's error.
``Expr.inlined`` generates a caller's float-mode template, the oracle's RK4
pass, with the tree's unchecked code at each call and its guard sum for
the caller to test at the end; ``_Body.bound`` defines the same template
calling a checked ``f`` instead.
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
# (sin or cos of inf, sqrt of -inf, division by zero).  So the operations,
# done unchecked in evaluation order, agree with a node-by-node checked
# evaluation up to the first node whose check fails.  There the operation
# raises, or its value is not finite, and so is the value of each node above
# it up to the value of f, unless one raises or takes it as an operand listed
# here, which the code adds to its guard sum.  Literals and variables have no
# check of their own, so they need no place in the guard.  On floats, an
# operation that raises ends the run with its value NaN, so its check fails
# first.  On arrays the same holds element by element, as numpy's operations
# act on each element alone and raise nothing with its warnings off; the guard
# sum adds up all the elements of each listed operand, and the value's too.
_MASKING = {"/": (False, True), "^": (True, True), "exp": (True,)}
# A call of the expression in an inlined template, f(t, u), with t and u plain names.
_CALL = re.compile(r"\bf\((\w+), (\w+)\)")


class _Body:
    """The lines of one generated function: node values are locals ``x<k>``,
    and literals, functions and error arguments are bound as ``c<k>`` in its
    namespace, so no source text reaches ``exec``.

    On Python floats (``floats``) or numpy arrays, each node's operation is
    emitted unchecked, ``mask`` adds to the guard sum, and the node's check
    waits in ``checks`` for the guard's test to fail.  ``inline`` drops the
    checks: its nodes are the calls in a float-mode template, whose names for
    t and u are ``at``.
    """

    def __init__(self, source: str, floats: bool):
        self.source = source
        self.floats = floats
        self.names = dict(_SCALAR_NAMES if floats else _ARRAY_NAMES)
        self.term = "{}" if floats else "total({}, None)"  # a value's term in the guard sum
        self.lines: list[str] = []
        self.checks: list[tuple[str, str]] = []  # (value, error arguments), in evaluation order
        self.at = _VARIABLES  # the names of t and u: the function's own or an inlined call's
        self.variables: dict[str, None] = {}  # the names of ``at`` that Var nodes use, in order

    def define(self, lines: list[str]):
        """Execute ``lines``, the source of one function ``fn``, in the
        namespace; return ``fn``."""
        exec("".join(f"{line}\n" for line in lines), self.names)
        return self.names["fn"]

    @classmethod
    def bound(cls, template: str, f):
        """``template``, as ``Expr.inlined`` takes it, with each call ``f(t, u)``
        a call of the callable ``f``, which checks its own values."""
        body = cls("", True)
        body.names["f"] = f
        return body.define(template.splitlines())

    def bind(self, obj) -> str:
        name = f"c{len(self.names)}"
        self.names[name] = obj
        return name

    def check(self, node: Expr, expr: str, detail: str) -> str:
        """Emit ``node``'s operation, unchecked, and keep its finiteness check."""
        lo, hi = node.span
        error = self.bind(((lo, hi), self.source[lo:hi], detail))
        name = f"x{len(self.lines)}"
        self.lines.append(f"{name} = {expr}")
        self.checks.append((name, error))
        return name

    def mask(self, op: str, *operands: tuple[Expr, str]) -> None:
        """Add to ``guard`` each of ``op``'s ``operands`` (node, value name)
        that ``_MASKING`` lists and a node computes; on arrays, the sum of its
        elements."""
        masked = zip(_MASKING.get(op, ()), operands)
        self.lines += [
            f"guard += {self.term.format(name)}" for m, (node, name) in masked if m and not isinstance(node, (Num, Var))
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
        call on scalars runs, without the dispatch; built on first use.  It
        runs as ``array`` does, with ``t`` and ``u`` made floats first and its
        operations in one try: one that raises ZeroDivisionError, ValueError
        or OverflowError leaves its value NaN, for its node's check to fail."""
        return self._scalar_fn or self._generate("scalar")

    @property
    def array(self):
        """The generated array-mode function ``fn(t, u)``, which is what a
        call on arrays runs, without the dispatch; built on first use.

        Its caller turns numpy's warnings off, so that no operation raises
        or warns.  When the guard sum plus the sum of the value is finite, no
        node's check could fail (``_MASKING`` says why), and the value is
        returned; otherwise the checks run, in evaluation order, and the
        first to fail raises its node's EvalError.
        """
        return self._array_fn or self._generate("array")

    def _generate(self, mode: str):
        # error snippets slice the source of the expression being called
        body = _Body(self.source, mode == "scalar")
        value = self._emit(body)
        run = ["guard = 0.0", *body.lines, f"if finite(guard + {body.term.format(value)}):", f"    return {value}"]
        test = "if not isfinite({}):" if body.floats else "if not isfinite({}).all():"
        checks = [line for name, error in body.checks for line in (test.format(name), f"    raise EvalError(*{error})")]
        if body.floats:
            # an operation that raises ends the run and leaves its value NaN;
            # the variables the tree uses are made floats before the try
            preset = [" = ".join([*(name for name, _ in body.checks), "nan"])] if body.checks else []
            run = [
                *preset,
                *(f"{name} = float({name})" for name in body.variables),
                "try:",
                *(f"    {line}" for line in run),
                "except (ZeroDivisionError, ValueError, OverflowError):",
                "    pass",
            ]
        lines = [*run, *checks, f"return {value}"]
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
        ``guard`` and every value of a call stay finite, no node's check could
        fail at any call (``_MASKING`` says why), so ``fn`` with each call of
        ``f`` running ``scalar`` would give the same values.  The oracle's
        ``solver._RK4_PASS`` returns ``guard`` plus its last value and its
        last sample, which every value of a call reaches, so that one finite
        sum covers the whole pass.
        """
        cached = self._inlined_fn
        if cached is None or cached[0] is not template:
            body = _Body(self.source, True)
            cached = template, body.define(body.inline(self, template))
            object.__setattr__(self, "_inlined_fn", cached)
        return cached[1]

    def __getstate__(self):
        # the generated functions are a cache, and they do not pickle
        state = dict(self.__dict__)
        for name in ("_scalar_fn", "_array_fn", "_inlined_fn"):
            state.pop(name, None)
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
        return body.bind(float(self.value) if body.floats else np.float64(self.value))


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def _emit(self, body: _Body) -> str:
        name = body.at[self.name == "u"]
        body.variables[name] = None
        return name


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
        fn = body.bind((_FUNCS_MATH if body.floats else _FUNCS_NUMPY)[self.func])
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

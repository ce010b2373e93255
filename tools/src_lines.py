"""Print the total and code lines of each ``src/thermistor/*.py`` file, and their sums.

A code line holds a token other than a comment, outside every module, class
and function docstring; blank lines, comment lines and docstring lines are
not code.  Standard library only.

Run from anywhere:

    python tools/src_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "thermistor"
# tokens that hold no code of their own: layout, comments and the end marker
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """The total and code lines of the Python source ``text``."""
    docstrings = _docstring_lines(ast.parse(text))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main() -> None:
    totals = [0, 0]
    print(f"{'file':<16} {'total':>5} {'code':>5}")
    for path in sorted(SRC.glob("*.py")):
        lines = count(path.read_text(encoding="utf-8"))
        totals = [a + b for a, b in zip(totals, lines)]
        print(f"{path.name:<16} {lines[0]:>5} {lines[1]:>5}")
    print(f"{'src/ total':<16} {totals[0]:>5} {totals[1]:>5}")


if __name__ == "__main__":
    main()

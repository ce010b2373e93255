"""The line counter of ``tools/src_lines.py``."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

SAMPLE = '''"""Module docstring,
two lines."""

import math  # a comment after code


# a comment line
class Shape:
    """Class docstring."""

    def area(self):
        """Function
        docstring."""
        text = """a string that is
        not a docstring"""
        return math.pi * len(text)
'''


def test_counts_total_and_code_lines():
    # code: the import, class, def, the two lines of the assigned string and
    # the return; not the blank, comment or docstring lines
    assert src_lines.count(SAMPLE) == (16, 6)


def test_prints_each_file_and_their_sums(capsys):
    src_lines.main()
    header, *files, total = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in files]
    assert header.split() == ["file", "total", "code"]
    assert [row[0] for row in rows] == sorted(path.name for path in src_lines.SRC.glob("*.py"))
    assert total.split()[-2:] == [str(sum(int(row[i]) for row in rows)) for i in (1, 2)]

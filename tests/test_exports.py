"""Every name a module exports must exist, no module imports a name it
never uses, every module is documented, and the README's example runs."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import thermistor

MODULES = ["thermistor"] + [
    f"thermistor.{info.name}" for info in pkgutil.iter_modules(thermistor.__path__)
]
README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = sorted(Path(thermistor.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # names listed in __all__ are re-exports, so they count as used
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    assert {name: line for name, line in imported.items() if name not in used} == {}


def test_code_is_generated_at_one_call_site():
    # expressions.py builds each evaluator from node ids and fixed names;
    # any other exec or eval needs the same review
    calls = [
        (path.name, name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        # exec(...) and builtins.exec(...) alike
        and (name := getattr(node.func, "id", getattr(node.func, "attr", None))) in ("exec", "eval")
    ]
    assert calls == [("expressions.py", "exec")]


@pytest.mark.parametrize("name", sorted(path.stem for path in SOURCES if path.stem != "__init__"))
def test_every_module_is_named_in_the_docs(name):
    layout = README.read_text(encoding="utf-8").split("## Layout\n", 1)[1].split("\n## ", 1)[0]
    assert f"`thermistor.{name}`" in layout
    assert f":mod:`thermistor.{name}`" in thermistor.__doc__


def test_readme_library_example_converges(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["report"].converged
    assert capsys.readouterr().out.startswith("True ")

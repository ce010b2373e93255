"""Every name a module exports must exist, every module is documented, and
the README's example runs."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import thermistor

MODULES = ["thermistor"] + [
    f"thermistor.{info.name}" for info in pkgutil.iter_modules(thermistor.__path__)
]
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize(
    "name", sorted(path.stem for path in Path(thermistor.__file__).parent.glob("*.py") if path.stem != "__init__")
)
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

"""Every name a module exports must exist, and the README's example runs."""

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


def test_readme_library_example_converges(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["report"].converged
    assert capsys.readouterr().out.startswith("True ")

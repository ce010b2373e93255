"""Every name a module exports must exist."""

import importlib
import pkgutil

import pytest

import thermistor

MODULES = ["thermistor"] + [
    f"thermistor.{info.name}" for info in pkgutil.iter_modules(thermistor.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []

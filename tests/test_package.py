"""The package's public surface."""

import importlib
import pkgutil

import pytest

import plapsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(plapsim.__path__)
                 if info.name != "__main__")   # importing it runs the CLI


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"plapsim.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []

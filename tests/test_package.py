"""The package's public surface."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_regularize_loads_no_other_plapsim_module():
    # spatial and noise import from regularize at their tops, which holds
    # no cycle only while regularize imports no other plapsim module
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            "import plapsim.regularize\n"
            "print(*(m for m in sys.modules if m.startswith('plapsim.')))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["plapsim.regularize"]

"""The package's public surface."""

import ast
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

# Public names with no caller in the package, kept because perfbench/ binds
# them: its explicit_2d workload calls make_sampler and simulate_path, and
# its tracer wraps simulate_path, sup_gap_scan and hm0_norm.  A name that
# gains a caller leaves this set.
BENCHMARK_NAMES = {
    ("evolution", "simulate_path"),
    ("config", "make_sampler"),
    ("spatial", "hm0_norm"),
    ("regularize", "sup_gap_scan"),
}


def _package_references():
    """Every name the package's code reads, as a bare name or an attribute;
    a top-level def or class does not count the reads of its own name."""
    names = set()
    for path in Path(plapsim.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            found = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                found.discard(stmt.name)
            names |= found
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"plapsim.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_every_exported_name_has_a_caller_in_the_package():
    # a public name only the tests call belongs with its tests
    references = _package_references()
    idle = {(name, attr) for name in MODULES
            for attr in getattr(importlib.import_module(f"plapsim.{name}"), "__all__", ())
            if attr not in references}
    assert idle == BENCHMARK_NAMES


def test_regularize_loads_no_other_plapsim_module():
    # spatial imports from regularize at its top, which holds no cycle
    # only while regularize imports no other plapsim module
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            "import plapsim.regularize\n"
            "print(*(m for m in sys.modules if m.startswith('plapsim.')))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["plapsim.regularize"]

"""Every ``repro`` subpackage and top-level module imports on its own.

The test suite's ``conftest.py`` imports ``repro.hw.cluster`` before any
test runs, which hides import cycles that a user's first ``import``
would hit (``python examples/ganglia_monitoring.py`` crashed that way).
Each case here starts a fresh interpreter, imports one subpackage first
and then every module under it, so the import order is the user's, not
the suite's. The cases run one after another.
"""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PKG = SRC / "repro"

TARGETS = sorted(
    [f"repro.{p.name}" for p in PKG.iterdir()
     if p.is_dir() and (p / "__init__.py").exists()]
    + [f"repro.{p.stem}" for p in PKG.glob("*.py") if p.stem != "__init__"]
    + ["repro"]
)

IMPORT_ALL = """
import importlib, pkgutil, sys
name = sys.argv[1]
mod = importlib.import_module(name)
for info in pkgutil.walk_packages(getattr(mod, "__path__", []), name + "."):
    importlib.import_module(info.name)
"""


@pytest.mark.parametrize("target", TARGETS)
def test_imports_in_fresh_interpreter(target):
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_ALL, target],
        cwd=SRC, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]

"""Every ``from repro... import ...`` shown in the docs still resolves.

Scans the fenced ``python`` blocks of ``README.md``, ``DESIGN.md``,
``EXPERIMENTS.md`` and ``docs/*.md``. A name resolves when it is an
attribute of the imported module or a submodule of it, so a renamed or
deleted entry point fails here instead of in a reader's terminal.
"""

import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md"))]

_FENCE = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
_IMPORT = re.compile(r"^[ \t]*from\s+repro[\w.]*\s+import\s+(?:\([^)]*\)|[^\n]*)",
                     re.MULTILINE)


def _imports(text):
    """``(module, name)`` for every repro from-import in a python fence."""
    for block in _FENCE.findall(text):
        for match in _IMPORT.finditer(block):
            node = ast.parse(match.group(0).strip()).body[0]
            for alias in node.names:
                yield node.module, alias.name


def _resolves(module, name):
    try:
        mod = importlib.import_module(module)
        if hasattr(mod, name):
            return True
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_doc_imports_resolve(path):
    unresolved = [f"from {module} import {name}"
                  for module, name in _imports(path.read_text())
                  if not _resolves(module, name)]
    assert not unresolved, f"{path.name}: {unresolved}"


def test_docs_show_repro_imports():
    assert sum(1 for path in DOCS for _ in _imports(path.read_text())) > 0

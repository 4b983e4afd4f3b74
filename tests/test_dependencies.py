"""numpy stays the only runtime dependency: every import in the package names the standard library, numpy or
segbench itself."""

import ast
import pathlib
import sys

import pytest

import segbench

ALLOWED = sys.stdlib_module_names | {"numpy", "segbench"}


def imported_modules(source: str) -> list[str]:
    """The top-level module each ``import``/``from`` statement of ``source`` names; relative imports are segbench."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("segbench" if node.level else node.module)
    return [name.split(".")[0] for name in names]


@pytest.mark.parametrize("path", sorted(pathlib.Path(segbench.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_stdlib_numpy_and_itself(path):
    modules = imported_modules(path.read_text(encoding="utf-8"))
    assert modules and sorted(set(modules) - ALLOWED) == []


def test_guard_sees_every_import_form():
    source = ("import os, scipy.special\nfrom . import model\nfrom .losses import LOSSES\nfrom pandas import api\n"
              "def f():\n    import torch\n")
    assert imported_modules(source) == ["os", "scipy", "segbench", "segbench", "pandas", "torch"]
    assert sorted(set(imported_modules(source)) - ALLOWED) == ["pandas", "scipy", "torch"]

"""The package's runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nonincidence"
SOURCES = sorted(PACKAGE.glob("*.py"))


def foreign_imports(tree):
    """Top-level names of the imports that are neither relative nor stdlib."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    tops = {name.partition(".")[0] for name in names}
    return sorted(tops - sys.stdlib_module_names - {PACKAGE.name})


def test_package_has_sources():
    assert {p.name for p in SOURCES} >= {"__init__.py", "search.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_are_stdlib_or_intra_package(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert foreign_imports(tree) == []


def test_a_foreign_import_is_caught():
    tree = ast.parse("import os, numpy.linalg\nfrom scipy import optimize\n"
                     "from . import design\nfrom nonincidence.bounds import x\n")
    assert foreign_imports(tree) == ["numpy", "scipy"]

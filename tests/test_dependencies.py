"""The dependency rule: the package and the scripts import the standard
library, numpy and sawbridge only."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = {"numpy", "sawbridge"}
MODULES = sorted([*(ROOT / "src" / "sawbridge").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def import_roots(path: Path) -> set[str]:
    """The top-level name of every absolute import in a module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.partition(".")[0])
    return roots


def test_the_rule_covers_the_package_and_the_scripts():
    names = {path.relative_to(ROOT).as_posix() for path in MODULES}
    assert {"src/sawbridge/cli.py", "scripts/mass_convergence.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_a_module_imports_the_standard_library_numpy_and_sawbridge_only(path):
    assert import_roots(path) - set(sys.stdlib_module_names) - ALLOWED == set()

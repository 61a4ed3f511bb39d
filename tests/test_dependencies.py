"""The dependency rules: the package and the scripts import the standard
library, numpy and sawbridge only, and every public name of the package
is used by code that is not a test."""

from __future__ import annotations

import ast
import sys
from collections import Counter
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


# the code a public name of the package must serve: tests alone do not count
CALLERS = sorted(
    path
    for folder in ("src", "scripts", "perfbench")
    for path in (ROOT / folder).rglob("*.py")
    if "tests" not in path.relative_to(ROOT).parts
)


def referenced_names(tree: ast.AST) -> Counter:
    """Every name a tree mentions: bare names, attribute names, and string
    constants that are a name (the tracer patches functions by string)."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
    return names


def public_definitions(tree: ast.Module):
    """The module's public functions and classes, and their public methods."""
    kinds = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (
                    member
                    for member in node.body
                    if isinstance(member, kinds) and not member.name.startswith("_")
                )


def test_every_public_name_of_the_package_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}
    everywhere = sum((referenced_names(tree) for tree in trees.values()), Counter())
    unused = [
        f"{path.relative_to(ROOT).as_posix()}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        if path.parent.name == "sawbridge"
        for node in public_definitions(tree)
        if everywhere[node.name] <= referenced_names(node)[node.name]
    ]
    assert unused == []

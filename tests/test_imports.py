"""Import hygiene of the package, with the standard library only.

Each module of src/szego_lab is parsed with ast.  An import whose bound
name never appears in the module, as a name or in the module's __all__, is
debris a deletion left behind.  Every name that a module's __all__ (and
the package's) exports must resolve.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "szego_lab"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """(line, name) for each import whose bound name the module never uses."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    out.append((node.lineno, name))
    return out


def test_the_checker_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math, os\n"
              "from dataclasses import dataclass, field\n"
              "__all__ = ['os']\n"
              "@dataclass\nclass A:\n    x: float = math.pi\n")
    assert unused_imports(source) == [(3, "field")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert unused_imports(source) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    name = "szego_lab" if module == "__init__" else f"szego_lab.{module}"
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []



@pytest.mark.parametrize("name", ["_fixed", "_fixed_pair", "_rdiv",
                                  "_circle_nodes"])
def test_fixed_point_helpers_are_defined_once(name):
    # one implementation per idea: each fixed-point helper has one home
    homes = [module for module in MODULES
             if any(isinstance(node, ast.FunctionDef) and node.name == name
                    for node in ast.walk(ast.parse(
                        (SRC / f"{module}.py").read_text(encoding="utf-8"))))]
    assert homes == ["xlinalg"]

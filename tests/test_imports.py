"""No module imports a name it never uses, and the package keeps its
exactness and its stdlib-only runtime.

An AST scan of every module in src/deepnest, the package __init__.py
included (it exports names lazily and imports none of them), and in
tests/.  A deletion elsewhere must not leave its imports behind.  In
src/deepnest alone there is no float literal, no `/`, no `float` name and
nothing from `math` but `gcd`, so all arithmetic stays on integers and
`Fraction`; every import is of the standard library or relative, and
pyproject.toml lists no runtime dependency.  tests/ may use floats.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "deepnest").glob("*.py"))
MODULES = sorted(PACKAGE + list((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in used]


def test_scan_sees_every_module():
    names = {p.name for p in MODULES}
    assert {"__init__.py", "geometry.py", "conics.py", "cli.py",
            "test_imports.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unused_import():
    assert unused_imports("import json\nfrom os import path, sep\nprint(sep)\n") == [
        "line 1: json", "line 2: path"]


def inexact(source: str) -> list[str]:
    """Each float literal, `/`, `float` name and `math` name other than
    `gcd` in `source`, and each import that is neither relative nor of
    the standard library."""
    out = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", None)
        if isinstance(node, ast.Constant) and isinstance(node.value,
                                                         (float, complex)):
            out.append(f"line {line}: float literal {node.value!r}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.Div):
            out.append(f"line {line}: /")
        elif isinstance(node, ast.Name) and node.id == "float":
            out.append(f"line {line}: float")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top == "math" or top not in sys.stdlib_module_names:
                    out.append(f"line {line}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            top = node.module.split(".")[0]
            if top not in sys.stdlib_module_names:
                out.append(f"line {line}: from {node.module}")
            elif top == "math":
                out += [f"line {line}: math.{alias.name}"
                        for alias in node.names if alias.name != "gcd"]
    return out


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_the_package_is_exact_and_stdlib_only(path):
    assert inexact(path.read_text(encoding="utf-8")) == []


def test_scan_flags_each_inexact_construct():
    source = ("import math\nimport numpy.linalg\n"
              "from math import gcd, sqrt\nfrom yaml import safe_load\n"
              "from . import geometry\nfrom fractions import Fraction\n"
              "x = 0.5 + float(1)\ny = 1 / 2\ny /= 3\nz = 7 // 2\n")
    assert sorted(inexact(source)) == [
        "line 1: import math", "line 2: import numpy.linalg",
        "line 3: math.sqrt", "line 4: from yaml", "line 7: float",
        "line 7: float literal 0.5", "line 8: /", "line 9: /"]


def test_pyproject_lists_no_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.M | re.S)
    assert project is not None
    assert re.findall(r"^(dependencies|dynamic)\s*=\s*(.*)$",
                      project.group(1), re.M) == [("dependencies", "[]")]

"""Checks on the package source as a whole."""

import ast
import re
from pathlib import Path

import qrea

_SRC = Path(qrea.__file__).resolve().parent
_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_helper_has_a_caller():
    """Every function and method of src/qrea, dunders aside, is named in
    some module of the package, or in the benchmark's tracer, which wraps
    some of them by name.  A helper that only the tests call belongs in
    the tests that use it."""
    defined, used = {}, set()
    for path in sorted(_SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, path.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    traced = set(re.findall(r"\w+", _TRACER.read_text()))
    dead = {name: module for name, module in defined.items()
            if not (name.startswith("__") and name.endswith("__"))
            and name not in used and name not in traced}
    assert not dead, dead

"""Checks on the package source as a whole."""

import ast
import re
from pathlib import Path

import qrea
from qrea.coeff import LaurentPoly

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


def _assigned_attributes(tree):
    """(line, attribute) of every attribute that the module assigns,
    augments, annotates or deletes, or sets by name through setattr or
    __setattr__."""
    def targets(node):
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                yield from targets(elt)
        elif isinstance(node, ast.Starred):
            yield from targets(node.value)
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr

    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            for target in node.targets:
                yield from targets(target)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            yield from targets(node.target)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            if (name in ("setattr", "__setattr__") and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)):
                yield node.lineno, node.args[1].value


def test_only_coeff_writes_laurent_slots():
    """A LaurentPoly may be the one object of its value that many memos
    share, so no module but coeff.py assigns to its slots: a shared value
    that changed would change every memo holding it."""
    slots = set(LaurentPoly.__slots__)
    writes = [(path.name, line, attr)
              for path in sorted(_SRC.glob("*.py")) if path.name != "coeff.py"
              for line, attr in _assigned_attributes(
                  ast.parse(path.read_text()))
              if attr in slots]
    assert not writes, writes
    # the scan sees the writes coeff.py makes itself
    coeff_writes = {attr for _, attr in _assigned_attributes(
        ast.parse((_SRC / "coeff.py").read_text()))}
    assert slots <= coeff_writes

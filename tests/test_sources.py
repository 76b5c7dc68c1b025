"""Checks on the package source, and on the test settings, as a whole."""

import ast
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import qrea
from qrea.coeff import LaurentPoly
from qrea.memo import module_memos

_SRC = Path(qrea.__file__).resolve().parent
_ROOT = Path(__file__).resolve().parents[1]
_TRACER = _ROOT / "perfbench" / "tracer.py"


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


def test_every_stored_attribute_is_read():
    """Every attribute that an __init__ of src/qrea stores on self is read
    somewhere in the package, or named in the benchmark's tracer: a field
    that nothing reads is dead."""
    stored, read = {}, set()
    for path in sorted(_SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.FunctionDef)
                  and node.name == "__init__"):
                for line, attr in _assigned_attributes(node):
                    stored.setdefault(attr, f"{path.name}:{line}")
    traced = set(re.findall(r"\w+", _TRACER.read_text()))
    unread = {attr: where for attr, where in stored.items()
              if attr not in read and attr not in traced}
    assert not unread, unread


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


def test_no_functools_cache():
    """Every computed cache of src/qrea is a qrea.memo.Memo, which
    checks.memo_sizes reports: none is a functools cache, lru_cache or
    cached_property."""
    found = []
    for path in sorted(_SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "functools"):
                names = [node.attr]
            else:
                continue
            found += [(path.name, node.lineno, name) for name in names
                      if name in ("cache", "lru_cache", "cached_property")]
    assert not found, found


def test_module_memos_finds_every_module_level_memo():
    """`qrea.memo.module_memos` returns exactly the top-level assignments
    of src/qrea whose value builds a Memo, a dict of them included."""
    written = {f"{path.stem}.{target.id}"
               for path in sorted(_SRC.glob("*.py"))
               for stmt in ast.parse(path.read_text()).body
               if isinstance(stmt, ast.Assign)
               and "Memo" in {n.id for n in ast.walk(stmt.value)
                              if isinstance(n, ast.Name)}
               for target in stmt.targets}
    found = {f"{module.__name__.rpartition('.')[2]}.{name}"
             for module, name, _ in module_memos()}
    assert found == written
    # not vacuous: the two suite-context caches and six module memos
    assert len(found) >= 8


# The functions that read a key with .get and then store under it, but are
# not caches of a computed value (a qrea.memo.Memo is that), and why.
_NOT_MEMOS = {
    ("linalg.py", "add_term"): "accumulates: it stores the sum, not a value "
                               "computed from the key",
    ("qmatrix.py", "_nf"): "suffix states, kept in the caller's dict and "
                           "only when asked: never the word asked for",
    ("linalg.py", "sparse_row_reduce"): "the pivot rows of an elimination",
    ("coeff.py", "_packed"): "the coefficient table, which share_values "
                             "also fills with values it did not compute",
    ("indexsets.py", "sweep_comb_lemma"): "keyed by the differences of a "
                                          "pair, computed from the pair",
}


def _own_nodes(func):
    """The nodes of a function's body, without those of nested functions."""
    nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    stack = [func]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, nested))


def _not_in_own_attribute(node):
    """Whether node is a test `key not in self._...`."""
    return isinstance(node, ast.Compare) and any(
        isinstance(op, ast.NotIn) and isinstance(right, ast.Attribute)
        and isinstance(right.value, ast.Name) and right.value.id == "self"
        and right.attr.startswith("_")
        for op, right in zip(node.ops, node.comparators))


def test_no_hand_written_cache():
    """No function of src/qrea looks a key up with a one-argument .get, or
    tests `key not in` a dict (a module-level `_CACHE`, say), and stores
    under the same key of the same dict; and none tests `key not in
    self._...`: a memo is a qrea.memo.Memo, which fills itself on a miss."""
    found = set()
    for path in sorted(_SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            lookups, stores = set(), set()
            for node in _own_nodes(func):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "get" and len(node.args) == 1):
                    lookups.add((ast.dump(node.func.value),
                                 ast.dump(node.args[0])))
                elif isinstance(node, ast.Assign):
                    stores.update((ast.dump(t.value), ast.dump(t.slice))
                                  for t in node.targets
                                  if isinstance(t, ast.Subscript))
                elif isinstance(node, ast.Compare):
                    if _not_in_own_attribute(node):
                        found.add((path.name, func.name))
                    keys = [node.left, *node.comparators]
                    lookups.update(
                        (ast.dump(right), ast.dump(key))
                        for key, op, right in zip(keys, node.ops,
                                                  node.comparators)
                        if isinstance(op, ast.NotIn))
            if lookups & stores:
                found.add((path.name, func.name))
    assert found == set(_NOT_MEMOS), sorted(found ^ set(_NOT_MEMOS))


def _names(stmt):
    """Every name that a statement reads, imports or defines."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.alias, ast.ClassDef, ast.FunctionDef)):
            yield node.name


def test_only_checks_and_the_cli_make_certificates():
    """Certificate is named in no module of src/qrea but checks.py, which
    defines it, and cli.py: every other verdict function returns None or
    its failure."""
    found = [(path.name, stmt.lineno) for path in sorted(_SRC.glob("*.py"))
             if path.name not in ("checks.py", "cli.py")
             for stmt in ast.parse(path.read_text()).body
             if "Certificate" in _names(stmt)]
    assert not found, found
    checks_tree = ast.parse((_SRC / "checks.py").read_text())
    assert "Certificate" in {stmt.name for stmt in checks_tree.body
                             if isinstance(stmt, ast.ClassDef)}


def test_a_failing_given_test_does_not_stop_the_run(tmp_path):
    """Under the project's pytest settings a failing hypothesis test is
    reported like any other, and the test after it still runs: the
    warnings filter must not turn the warning that hypothesis's report hook
    raises on a failure into an internal error."""
    (tmp_path / "test_pair.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x != x


        def test_passes():
            pass
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(_ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1

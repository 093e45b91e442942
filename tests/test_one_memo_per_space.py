"""What is derived from a space is kept in one memo on the space, and threaded nowhere.

`algebra.derived(X, key, build)` keeps everything worked out once per space
(path objects, lifting targets, cohomology groups, d^2 verdicts, filtered
complexes, spectral sequences, graded pieces, a scalar extension) in X's one
`_derived` dict.  This reads every module of `src/hodgepath` with the stdlib
`ast` module and fails on
  - a write of `_derived` outside `algebra.derived`: an assignment, a
    deletion, an item assignment or a mutating method call on it.  The one
    exception is the reset `self._derived = None` in
    `FreeCdga.set_differential`, which drops what the old d gave; a class
    may declare the attribute with the default None;
  - a function or lambda with a parameter named `groups`, `complexes`,
    `sequences` or `fc`, the names under which derived objects used to be
    threaded from call to call;
  - a dict read or written under a key built with `id(...)`: a cache keyed
    by object identity is not dropped with its object, and once the id is
    reused it answers for another.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "hodgepath")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
THREADED = {"groups", "complexes", "sequences", "fc"}
_MUTATORS = {"clear", "pop", "popitem", "setdefault", "update", "__setitem__", "__delitem__"}
_KEYED_READS = {"get", "setdefault", "pop"}


def _is_derived(node):
    return isinstance(node, ast.Attribute) and node.attr == "_derived"


def _has_id_call(node):
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "id"
               for n in ast.walk(node))


def _derived_writes(node):
    """The `_derived` attributes node writes, as a set of (line, kind) pairs."""
    out = set()
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
        targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
        for t in targets:
            for n in ast.walk(t):
                if _is_derived(n) or (isinstance(n, ast.Subscript) and _is_derived(n.value)):
                    reset = (isinstance(node, ast.Assign) and _is_derived(n)
                             and isinstance(node.value, ast.Constant) and node.value.value is None)
                    out.add((n.lineno, "reset" if reset else "write"))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in _MUTATORS and _is_derived(node.func.value):
        out.add((node.lineno, "write"))
    return out


def _id_keyed(node):
    """Whether node reads or writes a dict under a key that calls id()."""
    if isinstance(node, ast.Subscript):
        return _has_id_call(node.slice)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in _KEYED_READS and node.args:
        return _has_id_call(node.args[0])
    if isinstance(node, ast.Compare) and any(isinstance(op, (ast.In, ast.NotIn))
                                             for op in node.ops):
        return _has_id_call(node.left)
    return False


def memo_violations(source, module=""):
    """[(line, what, owner)] of the writes of `_derived`, threaded parameters and id() keys."""
    out = []

    def visit(node, cls, owner):
        if isinstance(node, ast.ClassDef) and owner is None:
            cls = node.name
            for stmt in node.body:
                # a class-level default other than None would be one dict for every space
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    if any(isinstance(t, ast.Name) and t.id == "_derived" for t in targets) \
                            and not (isinstance(stmt.value, ast.Constant)
                                     and stmt.value.value is None):
                        out.append((stmt.lineno, "_derived", cls))
        if isinstance(node, _FUNCTIONS) and owner is None:
            owner = f"{cls}.{node.name}" if cls else node.name
        if isinstance(node, (*_FUNCTIONS, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            for p in params:
                if p.arg in THREADED:
                    out.append((node.lineno, f"parameter {p.arg}", owner))
        for line, kind in _derived_writes(node):
            allowed = (module == "algebra.py" and owner == "derived") or \
                (module == "algebra.py" and owner == "FreeCdga.set_differential"
                 and kind == "reset")
            if not allowed:
                out.append((line, "_derived", owner))
        if _id_keyed(node):
            out.append((node.lineno, "id key", owner))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, owner)

    visit(ast.parse(source), None, None)
    return sorted(out)


def test_the_checker_finds_writes_parameters_and_id_keys():
    source = ("def derived(X, key, build):\n"
              "    if X._derived is None:\n        X._derived = {}\n"
              "    X._derived[key] = build()\n    return X._derived[key]\n"
              "class FreeCdga:\n    _derived = None\n"
              "    def set_differential(self, d):\n        self._derived = None\n"
              "        self._derived = {}\n"
              "class Shared:\n    _derived = {}\n"
              "def sneak(X, key):\n    X._derived.setdefault(key, 1)\n"
              "    del X._derived[key]\n    X._derived.clear()\n"
              "def threaded(f, upto, groups=None, *, fc=None):\n"
              "    return lambda complexes: (f, upto, groups, fc, complexes)\n"
              "class Cache:\n    def get(self, X, kind):\n"
              "        out = self._seen.get((id(X), kind))\n"
              "        if id(X) not in self._seen:\n            self._seen[id(X), kind] = out\n"
              "        return hash((id(X), kind)), X._derived.get(kind)\n")
    assert memo_violations(source, "algebra.py") == [
        (10, "_derived", "FreeCdga.set_differential"),
        (12, "_derived", "Shared"),
        (14, "_derived", "sneak"), (15, "_derived", "sneak"), (16, "_derived", "sneak"),
        (17, "parameter fc", "threaded"), (17, "parameter groups", "threaded"),
        (18, "parameter complexes", "threaded"),
        (21, "id key", "Cache.get"), (22, "id key", "Cache.get"), (23, "id key", "Cache.get")]
    # derived and set_differential are exempt in algebra.py only
    assert (3, "_derived", "derived") in memo_violations(source, "paths.py")
    assert (9, "_derived", "FreeCdga.set_differential") in memo_violations(source, "paths.py")


@pytest.mark.parametrize("module", MODULES)
def test_module_keeps_derived_objects_in_the_one_memo(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        found = memo_violations(fh.read(), module)
    assert found == [], (f"{module} keeps or threads derived objects by hand at {found}; "
                         "keep them on their space with algebra.derived")

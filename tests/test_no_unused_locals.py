"""No function of the package assigns a local it never reads.

A dead local is work done for nothing, or a sign that the code which read it
has gone.  This reads every module of `src/hodgepath` with the stdlib `ast`
module.  Per function (methods and nested functions included), a plain
assignment `name = ...` or `name: T = ...` to a single name must be read
somewhere in that function; reads inside the functions it defines count.
Names it declares `global` or `nonlocal` belong to another scope and are
skipped, as are loop targets and the targets of tuple unpacking.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "hodgepath")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope):
    """The nodes of a function's body, not descending into the functions it defines."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _assigned(scope):
    """{name: first line} of the single names the function itself assigns."""
    out, outer = {}, set()
    for node in _own_nodes(scope):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            outer.update(node.names)
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) and node.value else []
        for t in targets:
            if isinstance(t, ast.Name):
                out.setdefault(t.id, t.lineno)
    return {name: line for name, line in out.items() if name not in outer}


def unused_locals(source):
    """[(line, function, name)] of the locals assigned in source and never read."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        reads = {n.id for n in ast.walk(fn)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(line, fn.name, name) for name, line in _assigned(fn).items()
                if name not in reads]
    return sorted(out)


def test_the_checker_finds_locals_nothing_reads():
    source = ("def f(x):\n    a = 1\n    b: int = 2\n    c = 3\n"
              "    for d in x:\n        pass\n    e, g = x\n"
              "    def inner():\n        return c\n    return inner\n"
              "def h():\n    n = 0\n    def bump():\n        nonlocal n\n        n = n + 1\n"
              "    return bump\n")
    assert unused_locals(source) == [(2, "f", "a"), (3, "f", "b")]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_local_it_assigns(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        unused = unused_locals(fh.read())
    assert unused == [], f"{module} assigns locals it never reads: {unused}"

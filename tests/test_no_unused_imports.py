"""No module of the package imports a name it never reads.

A stale import hides what a module really depends on and keeps a cycle of
imports alive after the code that needed it is gone.  This reads every
module of `src/hodgepath` except `__init__.py` (whose imports are the public
exports) with the stdlib `ast` module.  An import at module level must be
read somewhere in the module; an import inside a function must be read
inside that function.  String annotations count as reads.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "hodgepath")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(scope):
    """The nodes of a scope, not descending into the functions it defines."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _imports(scope):
    """{bound name: line} of the imports made in the scope itself."""
    out = {}
    for node in _own_nodes(scope):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _reads(scope):
    """Names the scope and every function inside it read, string annotations included."""
    out = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        annotations = []
        if isinstance(node, _FUNCTIONS):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for a in annotations:
            if isinstance(a, ast.Constant) and isinstance(a.value, str):
                out |= {n.id for n in ast.walk(ast.parse(a.value, mode="eval"))
                        if isinstance(n, ast.Name)}
    return out


def unused_imports(source):
    """[(line, name)] of the names imported in source and never read in their scope."""
    tree = ast.parse(source)
    out = []
    for scope in [tree] + [n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS)]:
        reads = _reads(scope)
        out += [(line, name) for name, line in _imports(scope).items() if name not in reads]
    return sorted(out)


def test_the_checker_finds_module_and_local_imports():
    source = ("from x import a, b\nimport c.d\n"
              "def f() -> 'b':\n    from y import e, g\n    return g\n"
              "def h():\n    return e\n")
    assert unused_imports(source) == [(1, "a"), (2, "c"), (4, "e")]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_name_it_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        unused = unused_imports(fh.read())
    assert unused == [], f"{module} imports names it never reads: {unused}"

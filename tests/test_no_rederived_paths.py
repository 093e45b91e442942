"""A path object is chosen once and passed on, never worked out again.

A diagram's vertex path is chosen by `Diagram.vertex_path`, from the
diagram's budget and the vertex's tag (the only reader of `W_SHIFT`); any
other path object comes from a budget where the data comes in (a document,
`--t-budget`, the `budget` of a public entry point) through `paths.path_of`.
Everything built on top takes the path object itself: its path is
`path_of(P)`, and a space beside it gets its path from `paths.path_like`.
This reads every module of `src/hodgepath` with the stdlib `ast` module and
fails on
  - a read of `W_SHIFT` outside `Diagram.vertex_path`, and
  - a call of `path_of`, bare or as an attribute, with a `.budget` or
    `.w_shift` attribute among its arguments, outside `path_of`,
    `path_like` and `Diagram.vertex_path`.
A function nested in a method or function counts as inside it.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "hodgepath")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_RECIPE = {"budget", "w_shift"}
W_SHIFT_READERS = {"Diagram.vertex_path"}
PATH_CHOOSERS = {"path_of", "path_like", "Diagram.vertex_path"}


def rederived_paths(source):
    """[(line, what, outermost function)] of the W_SHIFT reads and path_of recipes."""
    out = []

    def visit(node, cls, top):
        if isinstance(node, ast.ClassDef) and top is None:
            cls = node.name
        if isinstance(node, _FUNCTIONS) and top is None:
            top = f"{cls}.{node.name}" if cls else node.name
        if isinstance(node, ast.Name) and node.id == "W_SHIFT" \
                and isinstance(node.ctx, ast.Load) and top not in W_SHIFT_READERS:
            out.append((node.lineno, "W_SHIFT", top))
        if isinstance(node, ast.Call) and top not in PATH_CHOOSERS:
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
            args = node.args + [k.value for k in node.keywords]
            if name == "path_of" and any(isinstance(n, ast.Attribute) and n.attr in _RECIPE
                                         for a in args for n in ast.walk(a)):
                out.append((node.lineno, "path_of", top))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, top)

    visit(ast.parse(source), None, None)
    return sorted(out)


def test_the_checker_finds_rederived_paths():
    source = ("W_SHIFT = {'plain': 0}\n"
              "class Diagram:\n    def vertex_path(self, v):\n"
              "        return path_of(self.A[v], self.budget, W_SHIFT[self.tags[v]])\n"
              "class Other:\n    def build(self, P):\n"
              "        def inner(X):\n            return paths.path_of(X, keyed(P).budget)\n"
              "        return inner, W_SHIFT['plain']\n"
              "def path_like(P, X):\n    return path_of(X, keyed(P).budget, keyed(P).w_shift)\n"
              "def fine(P, X, budget):\n    return path_of(P), path_of(X, budget)\n"
              "def recipe(P, X):\n    return path_of(X, w_shift=P.w_shift)\n")
    assert rederived_paths(source) == [(8, "path_of", "Other.build"),
                                       (9, "W_SHIFT", "Other.build"),
                                       (15, "path_of", "recipe")]


@pytest.mark.parametrize("module", MODULES)
def test_module_passes_path_objects_on(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        found = rederived_paths(fh.read())
    assert found == [], (f"{module} works a path object out again at {found}; take it "
                         "from Diagram.vertex_path, pass it on, or call paths.path_like")

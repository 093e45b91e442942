"""No module builds the matrix of d by hand: every caller reads a space's d_rows.

`d_rows(n)` is the one matrix of d per space and degree (the space protocol,
see `hodgepath.algebra`), built once per degree.  A caller that writes
`X.coords(b.d(), n + 1)` for itself builds those rows again on every call,
and a second copy of them can drift from the first.  This reads every
module of `src/hodgepath` with the stdlib `ast` module and fails on a call
`<anything>.coords(<x>.d(), ...)` or `coords(<x>.d(), ...)` made outside a
function whose name holds `d_rows`, the bodies that build the rows.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "hodgepath")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_coords_of_d(node):
    """Whether node is a call coords(<x>.d(), ...), as a method or a bare name."""
    if not (isinstance(node, ast.Call) and node.args):
        return False
    fn = node.func
    name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
    if name != "coords":
        return False
    first = node.args[0]
    return (isinstance(first, ast.Call) and isinstance(first.func, ast.Attribute)
            and first.func.attr == "d" and not first.args)


def hand_built_d_rows(source):
    """[(line, enclosing function)] of the coords(<x>.d(), ...) calls outside a d_rows body."""
    out = []

    def visit(node, owner):
        if isinstance(node, _FUNCTIONS):
            owner = node.name
        if _is_coords_of_d(node) and "d_rows" not in (owner or ""):
            out.append((node.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return sorted(out)


def test_the_checker_finds_coords_of_d_outside_d_rows():
    source = ("def d_rows(self, n):\n    return [self.coords(b.d(), n + 1) for b in B]\n"
              "def cohomology(X, n):\n    rows = [X.coords(b.d(), n + 1) for b in B]\n"
              "    def inner():\n        return coords(x.d().d(), 2)\n"
              "    return X.coords(x, n), X.coords(b.d(1), n)\n"
              "y = A.coords(z.d(), 3)\n")
    assert hand_built_d_rows(source) == [(4, "cohomology"), (6, "inner"), (8, None)]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_d_rows_instead_of_building_them(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        found = hand_built_d_rows(fh.read())
    assert found == [], f"{module} builds rows of d by hand at {found}; read X.d_rows(n)"

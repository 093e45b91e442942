"""No module builds a product or a subalgebra by hand: `paths.fibre_product` does.

A mapping path, a double path and a square boundary are each a fibre product
of spaces, cut out of their keyed product by endpoint equations f(x_i) =
g(x_j).  `paths.fibre_product` is the one constructor of such spaces, and
`paths.path_of` builds the path object of a subalgebra, cut out of the path
of its ambient.  This reads every module of `src/hodgepath` with the stdlib
`ast` module and fails on a call `ProductCdga(...)` or `SubCdga(...)`, bare
or as an attribute, outside those two functions of `paths.py` (a function
nested in one of them counts as inside it).
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "hodgepath")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_BUILT = {"ProductCdga", "SubCdga"}
ALLOWED = {"paths.py": {"fibre_product", "path_of"}}


def hand_built_spaces(source, allowed=()):
    """[(line, class, top-level function)] of the ProductCdga/SubCdga calls outside `allowed`."""
    out = []

    def visit(node, top):
        if isinstance(node, _FUNCTIONS) and top is None:
            top = node.name
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
            if name in _BUILT and top not in allowed:
                out.append((node.lineno, name, top))
        for child in ast.iter_child_nodes(node):
            visit(child, top)

    visit(ast.parse(source), None)
    return sorted(out)


def test_the_checker_finds_spaces_built_outside_the_constructors():
    source = ("def fibre_product(spaces):\n    return SubCdga(ProductCdga(spaces), [])\n"
              "def path_of(X):\n    def build():\n        return SubCdga(X, [])\n"
              "    return build()\n"
              "def square(P):\n    return algebra.SubCdga(P, [])\n"
              "T = ProductCdga([A, B])\n"
              "def isinstance_only(X):\n    return isinstance(X, SubCdga)\n")
    assert hand_built_spaces(source, {"fibre_product", "path_of"}) == [
        (8, "SubCdga", "square"), (9, "ProductCdga", None)]
    assert len(hand_built_spaces(source)) == 5


@pytest.mark.parametrize("module", MODULES)
def test_module_builds_fibre_products_through_the_one_constructor(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        found = hand_built_spaces(fh.read(), ALLOWED.get(module, ()))
    assert found == [], (f"{module} builds a product or subalgebra by hand at {found}; "
                         "call paths.fibre_product")

"""No module composes maps by hand: every composite is `algebra.compose`.

`compose(g, f, name=...)` is the one way to build the map x -> g(f(x)),
with its source, target, kind (linear map or morphism) and name read off
the two maps.  A closure `lambda x: g(f(x))` handed to `Morphism` states
them again by hand, and `Morphism(src, tgt, m.fn)` re-wraps an existing
map, usually only to rename it.  This reads every module of
`src/hodgepath` with the stdlib `ast` module and fails, outside
`algebra.compose` itself, on

* a lambda whose body is a chain of at least two one-argument calls ending
  in the lambda's first parameter: `g(f(x))`, `h(g(f(x)))`, `m.fn(f(x))`;
* a call of `Morphism` or `LinearMap` whose function argument, the third
  positional one or `fn=`, is an attribute `<map>.fn`.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "hodgepath")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_MAP_CLASSES = {"Morphism", "LinearMap"}


def _unary_call_arg(node):
    """The one argument of a call with one positional argument and no keywords, else None."""
    if isinstance(node, ast.Call) and len(node.args) == 1 and not node.keywords:
        return node.args[0]
    return None


def _is_call_chain_on(node, name):
    """Whether node is g(f(x)), h(g(f(x))), ... with x the given name (two calls at least)."""
    depth = 0
    while (inner := _unary_call_arg(node)) is not None:
        node, depth = inner, depth + 1
    return depth >= 2 and isinstance(node, ast.Name) and node.id == name


def _is_rewrap(node):
    """Whether node is Morphism(src, tgt, m.fn, ...) or LinearMap(..., fn=m.fn)."""
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    cls = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
    if cls not in _MAP_CLASSES:
        return False
    args = node.args[2:3] + [k.value for k in node.keywords if k.arg == "fn"]
    return any(isinstance(a, ast.Attribute) and a.attr == "fn" for a in args)


def _is_hand_built(node):
    if isinstance(node, ast.Lambda) and node.args.args:
        return _is_call_chain_on(node.body, node.args.args[0].arg)
    return _is_rewrap(node)


def hand_built_composites(source, module=""):
    """[(line, enclosing function)] of the hand-built composites and re-wraps outside compose."""
    out = []

    def visit(node, owner):
        if isinstance(node, _FUNCTIONS):
            owner = node.name
        if _is_hand_built(node) and not (module == "algebra.py" and owner == "compose"):
            out.append((node.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return sorted(out)


def test_the_checker_finds_composites_and_rewraps():
    source = ("def compose(g, f):\n    return Morphism(f.source, g.target, lambda x: g(f(x)))\n"
              "def square(F, Pi, h):\n"
              "    a = Morphism(A, B, lambda x, F=F, Pi=Pi: Pi(F(x)), name='refl')\n"
              "    b = Morphism(A, B, lambda y: h.map(g(f(y))))\n"
              "    c = Morphism(C, T, L.fn, name='square fill')\n"
              "    d = LinearMap(C, T, fn=L.fn)\n"
              "    return a, b, c, d\n"
              "ok = [lambda x: f(x), lambda x: f(g(y)), lambda x: f(amb.project(0, x)),\n"
              "      lambda x: f(x) - g(x), Morphism(A, B, fn), Morphism(A, B, lambda x: x)]\n")
    assert hand_built_composites(source, "algebra.py") == [(4, "square"), (5, "square"),
                                                           (6, "square"), (7, "square")]
    # compose is exempt in algebra.py only
    assert hand_built_composites(source, "paths.py")[0] == (2, "compose")


@pytest.mark.parametrize("module", MODULES)
def test_module_composes_with_compose(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        found = hand_built_composites(fh.read(), module)
    assert found == [], f"{module} composes maps by hand at {found}; call algebra.compose"

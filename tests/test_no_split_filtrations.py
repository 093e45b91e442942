"""W and F are read through one filtration protocol, never through a pair of methods.

Every keyed algebra answers `key_level(k, kind)`, every space answers
`has_filtration(kind)`, and an element's level is `Element.level(kind)`, for
kind "W" or "F"; `algebra.direction` says which way each kind runs.  This
reads every module of `src/hodgepath` with the stdlib `ast` module and fails
on any name, attribute or definition `key_weight`, `key_hodge`,
`has_weights` or `has_hodge`, and on a call `.weight()` or `.hodge()` or a
definition of a method `weight` or `hodge`.  The `weight` and `hodge` fields
of a `Generator` or a `TableBasisElement`, which a document declares, stay.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "hodgepath")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
SPLIT_NAMES = {"key_weight", "key_hodge", "has_weights", "has_hodge"}
SPLIT_METHODS = {"weight", "hodge"}


def split_filtrations(source):
    """[(line, name)] of every read, call or definition of a W/F method pair."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name in SPLIT_NAMES | SPLIT_METHODS:
            out.append((node.lineno, node.name))
        elif isinstance(node, ast.Attribute) and node.attr in SPLIT_NAMES:
            out.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in SPLIT_NAMES:
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in SPLIT_METHODS:
            out.append((node.lineno, f".{node.func.attr}()"))
    return sorted(out)


def test_the_checker_finds_split_filtrations():
    source = ("class A:\n"
              "    def key_weight(self, k): return None\n"
              "    def weight(self): return 0\n"
              "def f(A, x, g):\n"
              "    return A.has_hodge, x.hodge(), has_weights, g.weight, x.level('W')\n")
    assert split_filtrations(source) == [(2, "key_weight"), (3, "weight"),
                                         (5, ".hodge()"), (5, "has_hodge"),
                                         (5, "has_weights")]


@pytest.mark.parametrize("module", MODULES)
def test_no_split_filtration_methods(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert split_filtrations(fh.read()) == []

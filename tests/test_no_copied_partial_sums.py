"""No loop in src/hodgepath rebinds a partial sum to a copy of itself plus a term.

`out = out + x` inside a loop builds a new Element, a new dict of every term
summed so far, once per term: a sum of m terms copies O(m^2) of them.  The
one element combination is `algebra._accumulate`, which adds into a result
dict in place.  This reads every module of `src/hodgepath` with the stdlib
`ast` module and fails on an assignment `x = x + ...` or `x = x - ...`
(also as a branch of a conditional expression) inside a `for` or `while`
loop, unless the enclosing function is allowlisted below with its reason.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "hodgepath")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_LOOPS = (ast.For, ast.AsyncFor, ast.While)

# (module, enclosing function): why its rebinding stays
ALLOWED = {
    ("algebra.py", "augment"):
        "a Scalar sum, not an Element: there is no terms dict to add into",
    ("exprs.py", "expr"):
        "the parser folds whatever its resolver returns through + and -; "
        "a document's expression has a handful of terms",
    ("lifting.py", "free_lift"):
        "xi = xi + zeta corrects one generator's image once, not a sum over the loop",
    ("linalg.py", "_sub_multiple"):
        "a = a - c * b updates one Fraction or Scalar row entry read in the same iteration",
}


def _rebinds_to_sum(node):
    """Whether node is x = x + ... or x = x - ... (or x = <either> if ... else <either>)."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)):
        return False
    name = node.targets[0].id

    def is_sum(value):
        if isinstance(value, ast.IfExp):
            return is_sum(value.body) or is_sum(value.orelse)
        return (isinstance(value, ast.BinOp) and isinstance(value.op, (ast.Add, ast.Sub))
                and isinstance(value.left, ast.Name) and value.left.id == name)

    return is_sum(node.value)


def copied_partial_sums(source):
    """[(line, enclosing function)] of the rebinding sums inside a loop of that function."""
    out = []

    def visit(node, owner, in_loop):
        if isinstance(node, _FUNCTIONS):
            owner, in_loop = getattr(node, "name", "<lambda>"), False
        elif isinstance(node, _LOOPS):
            in_loop = True
        if in_loop and _rebinds_to_sum(node):
            out.append((node.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, in_loop)

    visit(ast.parse(source), None, False)
    return sorted(out)


def test_the_checker_finds_rebinding_sums_in_loops():
    source = ("def fold(xs):\n    out = 0\n    for x in xs:\n        out = out + x\n"
              "    total = out + 1\n    return total\n"
              "def parse(p):\n    out = p.term()\n    while p.more():\n"
              "        out = out + p.term() if p.plus() else out - p.term()\n"
              "        other = out + 1\n        out += 1\n        out = 1 + out\n"
              "    def inner(ys):\n        acc = 0\n        acc = acc + 1\n"
              "        return acc\n    return out\n"
              "for k in range(3):\n    z = z - k\n")
    assert copied_partial_sums(source) == [(4, "fold"), (10, "parse"), (20, None)]


@pytest.mark.parametrize("module", MODULES)
def test_module_accumulates_in_place(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        found = [(line, owner) for line, owner in copied_partial_sums(fh.read())
                 if (module, owner) not in ALLOWED]
    assert found == [], (f"{module} copies a partial sum per term at {found}; "
                         "add into one dict with algebra._accumulate")


def test_every_allowlisted_function_still_rebinds():
    # an entry whose rebinding is gone would let a new one in unnoticed
    for module, owner in ALLOWED:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            owners = {o for _, o in copied_partial_sums(fh.read())}
        assert owner in owners, (module, owner)

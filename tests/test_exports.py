"""Every exported name and every public definition is used besides its definition.

A name counts as used when code in src/, tests/ (this file excluded) or
demos/ loads it, as a bare name or as an attribute, outside the body of its
own def or class, or when README.md mentions it; importing it into
`hodgepath/__init__.py` is not a use.  That holds for every name
`hodgepath/__init__.py` exports, and, with perfbench/ counted as a user too,
for every public (not `_`-prefixed) module-level function and class of
`src/hodgepath/*.py`.  A definition that nothing uses is dead code, with a
public face or not.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "hodgepath" / "__init__.py"


def _exports():
    tree = ast.parse(INIT.read_text())
    return sorted(alias.asname or alias.name
                  for node in tree.body if isinstance(node, ast.ImportFrom)
                  for alias in node.names)


def _loads(node, outside):
    """Names and attributes loaded under node, except inside a def or class of that name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        outside = outside - {node.name}
    found = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    for child in ast.iter_child_nodes(node):
        found |= _loads(child, outside)
    return found & outside


def _definitions():
    """Public module-level functions and classes of the package's modules."""
    names = set()
    for path in sorted(INIT.parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                names.add(node.name)
    return names


def _python_files(subs):
    here = pathlib.Path(__file__).resolve()
    for sub in subs:
        for path in sorted((ROOT / sub).rglob("*.py")):
            if path.resolve() not in (here, INIT.resolve()):
                yield path


def _unused(names, subs=("src", "tests", "demos")):
    used = set()
    for path in _python_files(subs):
        used |= _loads(ast.parse(path.read_text()), names)
    readme = (ROOT / "README.md").read_text()
    used |= {n for n in names if re.search(rf"\b{re.escape(n)}\b", readme)}
    return sorted(names - used)


def test_every_export_is_used():
    assert _unused(set(_exports())) == []


def test_every_public_definition_is_used():
    names = _definitions()
    assert {"minimal_model", "SubCdga", "left_kernel"} <= names
    assert _unused(names, ("src", "tests", "demos", "perfbench")) == []


def test_an_unused_export_is_found():
    tree = ast.parse("def f():\n    return f()\n\ndef g():\n    return f()\n")
    assert _loads(tree, {"f", "g"}) == {"f"}

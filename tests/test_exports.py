"""Every name the package exports is used somewhere besides its definition.

A name `hodgepath/__init__.py` imports counts as used when code in src/,
tests/ (this file excluded) or demos/ loads it, as a bare name or as an
attribute, outside the body of its own def or class, or when README.md
mentions it.  An export that nothing uses is dead code with a public face.
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


def _python_files():
    here = pathlib.Path(__file__).resolve()
    for sub in ("src", "tests", "demos"):
        for path in sorted((ROOT / sub).rglob("*.py")):
            if path.resolve() not in (here, INIT.resolve()):
                yield path


def test_every_export_is_used():
    names = set(_exports())
    used = set()
    for path in _python_files():
        used |= _loads(ast.parse(path.read_text()), names)
    readme = (ROOT / "README.md").read_text()
    used |= {n for n in names if re.search(rf"\b{re.escape(n)}\b", readme)}
    assert sorted(names - used) == []


def test_an_unused_export_is_found():
    tree = ast.parse("def f():\n    return f()\n\ndef g():\n    return f()\n")
    assert _loads(tree, {"f", "g"}) == {"f"}

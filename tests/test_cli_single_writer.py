"""The CLI has one writer: `main` alone writes stdout and picks the exit code.

Every command returns (report, verdict); `main` writes the report, through
`emit` for a dict, and maps the verdict to exit 0 or 1.  This reads
`src/hodgepath/cli.py` with the stdlib `ast` module and fails on

* a call of `emit` or `sys.stdout.write` in any function other than `main`
  and `emit`;
* a `raise` of a class defined in `cli.py`: the exit code is decided by
  `main` from the verdict, not carried back by a private exception.
"""

import ast
import os

CLI = os.path.join(os.path.dirname(__file__), "..", "src", "hodgepath", "cli.py")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_WRITERS = {"main", "emit"}


def _is_write(node):
    """Whether node is a call of emit(...) or sys.stdout.write(...)."""
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    if isinstance(fn, ast.Name):
        return fn.id == "emit"
    return (isinstance(fn, ast.Attribute) and fn.attr == "write"
            and isinstance(fn.value, ast.Attribute) and fn.value.attr == "stdout"
            and isinstance(fn.value.value, ast.Name) and fn.value.value.id == "sys")


def _raised_name(node):
    """The class name a raise statement names, else None."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def second_writers(source):
    """([(line, function)] of writes outside main and emit, [(line, class)] of raises of local classes)."""
    tree = ast.parse(source)
    local_classes = {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    writes, raises = [], []

    def visit(node, owner):
        if isinstance(node, _FUNCTIONS):
            owner = node.name
        if _is_write(node) and owner not in _WRITERS:
            writes.append((node.lineno, owner))
        if isinstance(node, ast.Raise) and _raised_name(node) in local_classes:
            raises.append((node.lineno, _raised_name(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return sorted(writes), sorted(raises)


def test_the_checker_finds_second_writers():
    source = ("import sys\n"
              "class Failed(Exception):\n    pass\n"
              "def emit(report, fmt):\n    sys.stdout.write(str(report))\n"
              "def cmd_a(args):\n    emit({}, 'json')\n"
              "def cmd_b(args):\n    sys.stdout.write('x')\n    raise Failed()\n"
              "def cmd_c(args):\n    sys.stderr.write('x')\n    raise ValueError('y')\n"
              "def main(argv=None):\n    emit({}, 'json')\n    raise Failed\n")
    assert second_writers(source) == ([(7, "cmd_a"), (9, "cmd_b")],
                                      [(10, "Failed"), (16, "Failed")])


def test_main_is_the_only_writer():
    with open(CLI, encoding="utf-8") as fh:
        writes, raises = second_writers(fh.read())
    assert writes == [], f"cli.py writes stdout outside main at {writes}; return the report"
    assert raises == [], f"cli.py raises its own classes at {raises}; return the verdict"

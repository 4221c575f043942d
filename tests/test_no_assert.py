"""Safety checks in the package must not be assert statements.

``python -O`` strips asserts, so a check written as one would silently
stop guarding anything.  Raising AssertionError by hand survives -O but
names no failure; the package raises a named error instead.
"""

import ast
from pathlib import Path

import qdesigns

PACKAGE = Path(qdesigns.__file__).resolve().parent


def _raises_assertion_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def _offenders(source: str, name: str) -> list[str]:
    tree = ast.parse(source, filename=name)
    return [
        f"{name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        found += _offenders(path.read_text(encoding="utf-8"), path.name)
    assert not found, f"assert statements or raised AssertionErrors in the package: {found}"


def test_offenders_are_recognized():
    source = (
        "assert x\n"
        "raise AssertionError\n"
        "raise AssertionError('why')\n"
        "raise ValueError('fine')\n"
        "raise\n"
    )
    assert _offenders(source, "m.py") == ["m.py:1", "m.py:2", "m.py:3"]


def test_walk_sees_the_package():
    assert len(list(PACKAGE.rglob("*.py"))) >= 10

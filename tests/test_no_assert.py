"""Safety checks in the package must not be assert statements.

``python -O`` strips asserts, so a check written as one would silently
stop guarding anything.
"""

import ast
from pathlib import Path

import qdesigns

PACKAGE = Path(qdesigns.__file__).resolve().parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_walk_sees_the_package():
    assert len(list(PACKAGE.rglob("*.py"))) >= 10

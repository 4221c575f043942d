"""Every name the package imports must be used.

No linter runs in CI, so an import that a refactor leaves behind would
go unnoticed.  An imported name counts as used when the module reads it
(annotations included) or lists it in ``__all__``, which is how the
package re-exports names.
"""

import ast
from pathlib import Path

import qdesigns

PACKAGE = Path(qdesigns.__file__).resolve().parent


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def _offenders(source: str, name: str) -> list[str]:
    tree = ast.parse(source, filename=name)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = _exported(tree) | {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name}:{line}: {bound}" for bound, line in imported.items() if bound not in used]


def test_package_imports_are_used():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        found += _offenders(path.read_text(encoding="utf-8"), path.name)
    assert not found, f"unused imports in the package: {found}"


def test_offenders_are_recognized():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import xml.dom\n"
        "from typing import Iterator, Sequence\n"
        "from .gf2 import vec_mat\n"
        "import json\n"
        "__all__ = ['vec_mat']\n"
        "json = None\n"
        "def f(x: Sequence[int]) -> None:\n"
        "    return os.getcwd(), xml.dom\n"
    )
    assert _offenders(source, "m.py") == ["m.py:3: osp", "m.py:5: Iterator", "m.py:7: json"]

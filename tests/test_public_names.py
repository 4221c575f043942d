"""Every public name of the package must exist and be used by the program.

A name in a module's ``__all__`` must be bound at the module's top level,
and something other than the tests must read it: a module of the package
other than ``__init__.py`` (a name or attribute load), or a benchmark
script under ``bench/`` (a whole-word match).  A helper only the tests
call belongs in the tests.  ALLOWED lists the few public names kept
without a reader, each with its reason.
"""

import ast
import re
from pathlib import Path

import qdesigns
from test_imports_used import _exported

PACKAGE = Path(qdesigns.__file__).resolve().parent
BENCH = PACKAGE.parents[1] / "bench"

ALLOWED = {
    "planner.parse_plan": "the reader of the plan files write_plan_file writes; construct --plan will call it",
    "catalog.DESIGN_COUNT": "the number of shipped designs, a constant of the shipped data",
}


def _top_level_names(tree: ast.Module) -> set[str]:
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return bound


def _offenders(sources: dict[str, str], bench_text: str, allowed) -> list[str]:
    trees = {name: ast.parse(source, filename=name) for name, source in sources.items()}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for name, tree in trees.items()
        if name != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for name, tree in trees.items():
        bound = _top_level_names(tree)
        for entry in sorted(_exported(tree)):
            if entry not in bound:
                found.append(f"{name}: {entry} is not bound")
            elif not (
                entry in read
                or f"{name.removesuffix('.py')}.{entry}" in allowed
                or re.search(rf"\b{re.escape(entry)}\b", bench_text)
            ):
                found.append(f"{name}: {entry} is never read")
    return found


def test_public_names_are_bound_and_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    bench_text = "".join(p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py")))
    found = _offenders(sources, bench_text, ALLOWED)
    assert not found, f"public names that are missing or that nothing reads: {found}"


def test_allowed_names_are_still_public():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    for key in ALLOWED:
        module, _, entry = key.partition(".")
        assert entry in _exported(ast.parse(sources[module + ".py"])), key


def test_offenders_are_recognized():
    sources = {
        "m.py": (
            "from .gf2 import vec_mat\n"
            "__all__ = ['vec_mat', 'used', 'unused', 'benched', 'kept', 'ghost', 'LIMIT']\n"
            "LIMIT: int = 3\n"
            "def used(): pass\n"
            "def unused(): pass\n"
            "def benched(): pass\n"
            "class kept: pass\n"
        ),
        "n.py": "from . import m\nx = m.used(m.vec_mat)\ny = [LIMIT]\n",
        "__init__.py": "from .m import unused\n__all__ = ['unused']\nunused()\n",
    }
    bench_text = "benched_too = 1\nm.benched()\n"
    assert _offenders(sources, bench_text, {"m.kept": "a reason"}) == [
        "m.py: ghost is not bound",
        "m.py: unused is never read",
        "__init__.py: unused is never read",
    ]

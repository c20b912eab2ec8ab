"""Every name a ``votemanip`` module imports is used in that module, and
every module-level private name is read somewhere in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "votemanip"
# the package's __init__ imports names to re-export them
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source):
    """Names the source imports but never reads, with ``__future__`` imports left out."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport sys as system\nfrom typing import Iterable, Set\n"
        "def f(xs: Iterable[int]) -> None:\n    system.exit(0)\n"
    )
    assert unused_imports(source) == ["Set", "os"]


def unread_private_names(sources):
    """Module-level ``_private`` names that none of the sources reads."""
    trees = [ast.parse(source) for source in sources]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(name for name in defined - read if name.startswith("_") and name[1] != "_")


def test_private_checker_finds_unread_names():
    sources = [
        "__version__ = '1'\n_LIMIT = 3\n_a, _b = 1, 2\ndef _left(): pass\nclass _Kept: pass\n"
        "def public(): return _a + _LIMIT\n",
        "from .one import _Kept\nfrom . import one\nx = one._b + 1\n",
    ]
    assert unread_private_names(sources) == ["_Kept", "_left"]


def test_no_unread_private_names():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert unread_private_names(sources) == []


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

"""Every private module-level name of the package has a reader in it.

A function, class or constant at the top level of a module of
``src/cardyfrob`` whose name starts with one underscore is private to that
module.  It must be read in the module, outside its own definition, or be
imported from it by another module of the package.  Otherwise only tests
can reach it, and a hook that only tests call belongs in the tests.  Each
module is parsed with :mod:`ast`.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "cardyfrob").glob("*.py"))


def private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each private name bound at the top level of a module, with the
    statement that binds it."""
    found: dict[str, ast.stmt] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found.update((name, node) for name in names if name[:1] == "_" and name[:2] != "__")
    return found


def dead_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """``module.name`` for each private definition of the modules in
    ``trees`` (keyed by module name) that no other code of theirs reads."""
    imported: defaultdict[str, set[str]] = defaultdict(set)
    for importer, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rsplit(".", 1)[-1]
                if source != importer:
                    imported[source].update(alias.name for alias in node.names)
    dead = []
    for module, tree in trees.items():
        for name, definition in private_definitions(tree).items():
            inside = set(map(id, ast.walk(definition)))
            read = any(
                isinstance(node, ast.Name)
                and node.id == name
                and isinstance(node.ctx, ast.Load)
                and id(node) not in inside
                for node in ast.walk(tree)
            )
            if not read and name not in imported[module]:
                dead.append(f"{module}.{name}")
    return dead


def test_every_private_name_has_a_reader():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    assert dead_private_names(trees) == []


def test_the_check_sees_a_dead_private_name():
    trees = {
        "alpha": ast.parse(
            "_USED = 1\n_UNUSED: int = 2\n__version__ = '1'\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "def _exported():\n    pass\n"
            "class _Lonely:\n    pass\n"
            "def public():\n    return _USED\n"
        ),
        "beta": ast.parse("from .alpha import _exported\n"),
    }
    assert dead_private_names(trees) == ["alpha._UNUSED", "alpha._recursive", "alpha._Lonely"]

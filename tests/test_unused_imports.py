"""Every imported name in the package and its tests is used.

Each module of ``src/cardyfrob`` and ``tests`` is parsed with :mod:`ast`.  A
name counts as used when it is read anywhere in the module or listed in
``__all__``; ``from __future__`` imports are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "cardyfrob").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def imported_names(tree: ast.AST) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree: ast.AST) -> set[str]:
    """The names read in ``tree`` and those listed in its ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {item.value for item in ast.walk(node.value) if isinstance(item, ast.Constant)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    bound = imported_names(tree).items()
    unused = [f"line {line}: {name}" for name, line in bound if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nfrom typing import Mapping, Sequence as Seq\n"
        "from fractions import Fraction\n__all__ = ['Fraction']\n"
        "def f(x: Seq[int]) -> None:\n    return None\n"
    )
    used = used_names(tree)
    assert [name for name in imported_names(tree) if name not in used] == ["os", "Mapping"]

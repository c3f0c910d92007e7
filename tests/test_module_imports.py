"""The algebra layer does not import the layers built on it.

:mod:`cardyfrob.frobenius` reads the permutation model of ``B`` only through
the methods of the catalog it is handed, so it must import neither
:mod:`cardyfrob.actions` nor :mod:`cardyfrob.cardy`; either import would
close a cycle, since both import :mod:`cardyfrob.frobenius`.  Each import
of the module is parsed with :mod:`ast` and resolved to a module name.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cardyfrob"
FORBIDDEN = {"cardyfrob.actions", "cardyfrob.cardy"}


def imported_modules(tree: ast.AST) -> set[str]:
    """Every module an import in ``tree`` names, relative ones resolved
    inside ``cardyfrob`` and ``from package import name`` counted as both."""
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "cardyfrob" if node.level else ""
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
            modules.add(base)
            modules.update(f"{base}.{alias.name}" for alias in node.names)
    return modules


def test_frobenius_imports_neither_actions_nor_cardy():
    tree = ast.parse((PACKAGE / "frobenius.py").read_text())
    assert not imported_modules(tree) & FORBIDDEN


def test_the_check_sees_each_form_of_import():
    for source in (
        "from .actions import FieldCatalog\n",
        "from . import cardy\n",
        "import cardyfrob.cardy\n",
        "from cardyfrob.actions import build_catalog\n",
    ):
        assert imported_modules(ast.parse(source)) & FORBIDDEN, source
    assert not imported_modules(ast.parse("from . import linalg\n")) & FORBIDDEN

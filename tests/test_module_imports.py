"""The algebra layer does not import the layers built on it, and the CLI
calls only public names.

:mod:`cardyfrob.frobenius` reads the permutation model of ``B`` only through
the methods of the catalog it is handed, so it must import neither
:mod:`cardyfrob.actions` nor :mod:`cardyfrob.cardy`; either import would
close a cycle, since both import :mod:`cardyfrob.frobenius`.  Each import
of the module is parsed with :mod:`ast` and resolved to a module name.  It
asks the model one question, ``premises(alg).orbital``, so no word of its
source names the catalog's other methods or its action, and it defines none
of the premise helpers that live in :mod:`cardyfrob.actions`;
:mod:`cardyfrob.cardy` imports none of those helpers from it.
:mod:`cardyfrob.cli` is a client of the library like any other, so it
imports no ``_``-prefixed name from the package.  The model checks of
:mod:`cardyfrob.cardy` index the orbit table, or read it through the
counters of :mod:`cardyfrob.actions`, and never list the orbits, so no
function there calls ``.orbits()``, and
the Cardy condition's walk reads the constants of ``B`` alone, so
``_check_cardy`` reads no ``catalog`` attribute.  It reads ``Phi F_B`` and
``phi*`` from the algebra's cache and forms neither again, so it reads no
``phi`` or ``form``; its slow reference ``cardy_condition_oracle`` forms
``phi*`` from the stored inverse of ``F_A``, ``phi`` and ``F_B`` and reads
none of that cache.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cardyfrob"
FORBIDDEN = {"cardyfrob.actions", "cardyfrob.cardy"}
CATALOG_NAMES = {"is_model_of", "trace_counts", "diagonal_counts", "cardy_trace_counts", "nset"}
MOVED = {"ModelPremises", "_model_premises", "_is_orbital_algebra", "_is_ratio", "_is_trace_form"}


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


def test_frobenius_names_nothing_of_the_model_but_its_question():
    source = (PACKAGE / "frobenius.py").read_text()
    assert not set(re.findall(r"\w+", source)) & CATALOG_NAMES
    body = ast.parse(source).body
    defined = {node.name for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & MOVED


def test_cardy_takes_no_premise_helper_from_frobenius():
    tree = ast.parse((PACKAGE / "cardy.py").read_text())
    assert not imported_modules(tree) & {f"cardyfrob.frobenius.{name}" for name in MOVED}


def orbit_walkers(tree: ast.AST) -> list[str]:
    """The name of each function in ``tree`` that calls a method ``orbits``."""
    return [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "orbits"
    ]


def test_cardy_walks_no_orbit_list():
    assert orbit_walkers(ast.parse((PACKAGE / "cardy.py").read_text())) == []


def attributes_read(tree: ast.AST, name: str) -> set[str]:
    """Every attribute that the top-level function ``name`` of ``tree`` reads."""
    (function,) = [node for node in tree.body if getattr(node, "name", None) == name]
    return {node.attr for node in ast.walk(function) if isinstance(node, ast.Attribute)}


def test_cardy_condition_walks_without_the_catalog():
    read = attributes_read(ast.parse((PACKAGE / "cardy.py").read_text()), "_check_cardy")
    assert {"_pairing_rows", "_phi_dual"} <= read
    assert not read & {"catalog", "phi", "form"}


def test_cardy_oracle_forms_its_own_phi_dual():
    tree = ast.parse((PACKAGE / "oracles.py").read_text())
    read = attributes_read(tree, "cardy_condition_oracle")
    assert {"form_inverse", "phi", "form"} <= read
    assert not read & {"_phi_dual", "_pairing_rows", "phi_dual_apply", "phi_dual_pairing"}


def test_the_check_sees_an_orbit_walk():
    tree = ast.parse(
        "def walk(h):\n"
        "    for orbit in h.catalog.orbits():\n"
        "        pass\n"
        "def tally(h):\n"
        "    return h.catalog.trace_counts()\n"
    )
    assert orbit_walkers(tree) == ["walk"]


def test_the_check_sees_each_form_of_import():
    for source in (
        "from .actions import FieldCatalog\n",
        "from . import cardy\n",
        "import cardyfrob.cardy\n",
        "from cardyfrob.actions import build_catalog\n",
    ):
        assert imported_modules(ast.parse(source)) & FORBIDDEN, source
    assert not imported_modules(ast.parse("from . import linalg\n")) & FORBIDDEN


def private_imports(tree: ast.AST) -> list[str]:
    """``module.name`` for each ``_``-prefixed name that an import in
    ``tree`` takes from ``cardyfrob``, relative imports included."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.split(".")[0] == "cardyfrob":
                found += [f"{module}.{a.name}" for a in node.names if a.name[:1] == "_"]
    return found


def test_cli_imports_no_private_name():
    assert private_imports(ast.parse((PACKAGE / "cli.py").read_text())) == []


def test_the_check_sees_a_private_import():
    tree = ast.parse(
        "from .cardy import verify_all, _verify_cardy_frobenius\n"
        "from cardyfrob.frobenius import _model_premises\n"
        "from . import _private\n"
        "from argparse import _SubParsersAction\n"
    )
    assert private_imports(tree) == [
        "cardy._verify_cardy_frobenius",
        "cardyfrob.frobenius._model_premises",
        "._private",
    ]

"""Every name of the package that the benchmark harness reads exists.

``perfbench`` changes only with the benchmark, so a name deleted or moved in
``src/cardyfrob`` would break its runs without failing a test of the
package.  Its modules are parsed with :mod:`ast`, not imported: every
``cf.<name>`` of ``perfbench/workloads.py`` is an attribute of
:mod:`cardyfrob`, every method of ``AGGREGATED_METHODS`` in
``perfbench/tracer.py`` is defined on
:class:`~cardyfrob.EquippedFrobeniusAlgebra` itself, which the tracer patches
through the class's ``__dict__``, and every key of its ``_NAMERS`` names a
function in ``cardyfrob.__all__``, the functions the tracer wraps.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import cardyfrob
from cardyfrob import EquippedFrobeniusAlgebra

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def parsed(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text())


def assigned(tree: ast.Module, name: str) -> ast.expr:
    """The value bound to ``name`` at the top level of ``tree``."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if any(isinstance(target, ast.Name) and target.id == name for target in targets):
            return node.value
    raise AssertionError(f"{name} is not bound at the top level")


def test_workloads_read_names_of_the_package():
    read = {
        node.attr
        for node in ast.walk(parsed("workloads.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cf"
    }
    assert "evaluate" in read
    assert sorted(name for name in read if not hasattr(cardyfrob, name)) == []


def test_tracer_aggregates_methods_of_the_algebra_class():
    methods = ast.literal_eval(assigned(parsed("tracer.py"), "AGGREGATED_METHODS"))
    assert "casimir_sandwich" in methods
    missing = [name for name in methods if name not in EquippedFrobeniusAlgebra.__dict__]
    assert missing == []


def test_tracer_names_spans_of_public_functions():
    namers = assigned(parsed("tracer.py"), "_NAMERS")
    assert isinstance(namers, ast.Dict)
    keys = [ast.literal_eval(key) for key in namers.keys]
    assert "evaluate" in keys
    wrapped = {name for name in cardyfrob.__all__ if inspect.isfunction(getattr(cardyfrob, name))}
    assert sorted(set(keys) - wrapped) == []

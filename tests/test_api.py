"""The public names stay importable: every ``__all__`` entry resolves, so
``from dagforge import *`` works, and so does every name the benchmark's
traced driver takes from dagforge."""

import ast
import importlib
import pkgutil

import pytest

import dagforge

from conftest import REPO

# __main__ runs the CLI when imported
MODULES = ["dagforge"] + [f"dagforge.{m.name}" for m in pkgutil.iter_modules(dagforge.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names)), f"{module_name}.__all__ repeats a name"
    assert [n for n in names if not hasattr(module, n)] == []


def _traced_driver_uses() -> list[tuple[str, str | None]]:
    """(module, name) pairs: ``from M import name``, ``import M`` and ``dagforge.name``."""
    tree = ast.parse((REPO / "benchmarks" / "traced.py").read_text(encoding="utf-8"))
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dagforge":
            uses += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            uses += [(a.name, None) for a in node.names if a.name.split(".")[0] == "dagforge"]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "dagforge":
            uses.append(("dagforge", node.attr))
    return uses


def test_traced_driver_imports_resolve():
    uses = _traced_driver_uses()
    assert ("dagforge", "apply_interventions") in uses  # the parse found the driver's imports
    for module_name, name in uses:
        module = importlib.import_module(module_name)
        assert name is None or hasattr(module, name), f"{module_name}.{name}"

"""The public names stay importable: every ``__all__`` entry resolves, so
``from dagforge import *`` works, and so does every name the benchmark's
traced driver takes from dagforge.  The package loads a submodule only when
one of its names is first used, so a command loads only what it runs."""

import ast
import importlib
import pkgutil
import subprocess
import sys

import pytest

import dagforge

from conftest import MODELS, REPO

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


def _fresh(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter, so nothing this session imported counts."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True).stdout


# what only `dagforge run` needs for a document without a seed: sampling, node
# programs, the random streams and the writer
RUN_ONLY = ("dagforge.sampler", "dagforge.evaluator", "dagforge.rng", "dagforge.output", "hashlib")


@pytest.mark.parametrize("command", ["validate", "graph"])
def test_validate_and_graph_never_load_the_sampler_or_the_writer(command):
    loaded = _fresh(f"""
import contextlib, io, sys
from dagforge.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main([{command!r}, {str(MODELS / "images.yaml")!r}]) == 0
print(sorted(set({RUN_ONLY!r}) & set(sys.modules)))
""")
    assert loaded == "[]\n"


def test_bare_package_import_loads_no_submodule():
    assert _fresh("import sys, dagforge; print(sorted(m for m in sys.modules if m.startswith('dagforge.')))") == "[]\n"


def test_lazy_names_are_listed_resolved_and_checked():
    out = _fresh("""
import dagforge
print(set(dagforge.__all__) <= set(dir(dagforge)))
names = {}
exec("from dagforge import *", names)
print(all(names[n] is getattr(dagforge, n) for n in dagforge.__all__), dagforge.__version__ == dagforge.ENGINE_VERSION)
try:
    dagforge.nope
except AttributeError as err:
    print(err)
""")
    assert out == "True\nTrue True\nmodule 'dagforge' has no attribute 'nope'\n"


def test_no_method_is_generated_at_start_up():
    """Every method of a dagforge class comes from its source file: none is
    compiled from generated text, as ``@dataclass`` does for the methods it
    writes, when a module is imported."""
    generated = _fresh(f"""
import importlib, inspect
found = []
for name in {MODULES!r}:
    module = importlib.import_module(name)
    for cls in vars(module).values():
        if not isinstance(cls, type) or cls.__module__ != name:
            continue
        for attr, value in vars(cls).items():
            # class and static methods, properties and cached properties hold their function
            fn = next((getattr(value, a) for a in ("__func__", "fget", "func") if hasattr(value, a)), value)
            fn = inspect.unwrap(fn) if callable(fn) else fn
            if getattr(getattr(fn, "__code__", None), "co_filename", None) == "<string>":
                found.append(f"{{name}}.{{cls.__qualname__}}.{{attr}}")
print(len(found), sorted(found))
""")
    assert generated == "0 []\n"

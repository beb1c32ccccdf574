"""Every exported name resolves: each ueds module's __all__, the names the
package's __init__ imports, and the ueds names that the benchmark scripts
under perfbench/ and the test specs tests/*_reference.py import, private
helpers included.  A deletion or rename that leaves a stale export, breaks
the benchmark's tracer or a spec, fails here with the missing name instead
of in a benchmark run or as a collection error."""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import ueds

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(ueds.__path__, "ueds.") if m.name != "ueds.__main__"
)


def imported_ueds_names(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each name the file imports from ueds or one of its
    modules; relative imports are resolved against the ueds package."""
    found: list[tuple[str, str]] = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "ueds" + ("." + module if module else "")
            if module == "ueds" or module.startswith("ueds."):
                found += [(module, alias.name) for alias in node.names]
    return found


def unresolved(imports: list[tuple[str, str]]) -> list[str]:
    return [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_submodules_keep_their_names():
    # a package attribute bound to a same-named function would hide its module
    import ueds.selfcheck

    assert isinstance(ueds.selfcheck, types.ModuleType)


def test_package_imports_resolve():
    imports = imported_ueds_names(Path(ueds.__file__))
    assert len(imports) > 40
    assert unresolved(imports) == []
    assert all(hasattr(ueds, name) for _, name in imports)


@pytest.mark.parametrize(
    "script",
    sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tests").glob("*_reference.py")),
    ids=lambda path: path.name,
)
def test_benchmark_imports_resolve(script):
    assert unresolved(imported_ueds_names(script)) == []

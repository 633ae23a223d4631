"""Every module under ``repro`` imports, and every one has a caller.

Most modules are imported by some other test, but not all: a deletion
that leaves a stale import in an otherwise unused module would only show
when something finally loads it.  This walks the package and imports
each module (``__main__`` excepted: importing it runs the CLI).

A module that only its own tests import is library code nothing runs;
:func:`test_every_module_has_a_non_test_importer` reads the imports of
``src/``, ``benchmarks/``, ``perfbench/`` and ``examples/`` with ``ast``
and names each module none of them imports.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "perfbench", "examples")

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, repro.__name__ + ".")
    if info.name.rpartition(".")[2] != "__main__")


def test_walk_finds_the_package():
    assert "repro.cli" in MODULES
    assert "repro.vm.compile" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)


def _module_name(path):
    """The dotted name of a file under ``src/repro``."""
    parts = list(path.relative_to(PACKAGE.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_names(path):
    """Every dotted name a file imports, relative imports resolved.

    ``from X import Y`` yields both ``X`` and ``X.Y``, since ``Y`` may be
    a submodule.
    """
    package = None
    if path.is_relative_to(PACKAGE):
        package = _module_name(path)
        if path.name != "__init__.py":
            package = package.rpartition(".")[0]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level and package is None:
                continue  # relative, outside src/: cannot name a repro module
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            names.add(base)
            names.update(base + "." + alias.name for alias in node.names)
    return names


def test_every_module_has_a_non_test_importer():
    modules = {
        _module_name(path): path for path in PACKAGE.rglob("*.py")
        if path.stem != "__main__"}
    # Importing ``a.b.c`` loads ``a`` and ``a.b`` too.
    imported = {}
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            for name in _imported_names(path):
                while name:
                    imported.setdefault(name, set()).add(path)
                    name = name.rpartition(".")[0]
    orphans = sorted(
        name for name, path in modules.items()
        if not imported.get(name, set()) - {path})
    assert orphans == [], (
        "modules that no file under %s imports: %s"
        % ("/, ".join(CALLER_DIRS) + "/", ", ".join(orphans)))

"""Every module under ``repro`` imports.

Most modules are imported by some other test, but not all: a deletion
that leaves a stale import in an otherwise unused module would only show
when something finally loads it.  This walks the package and imports
each module (``__main__`` excepted: importing it runs the CLI).
"""

import importlib
import pkgutil

import pytest

import repro

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

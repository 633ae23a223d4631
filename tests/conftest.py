"""Shared fixtures for the tier-1 suite."""

import contextlib
import sys

import pytest

from repro.vm.compile import make_vm
from tests.reference.interp_vm import InterpVM


def make_interp_vm(module, model, **kwargs):
    """:func:`repro.vm.compile.make_vm`, building the reference VM."""
    return InterpVM(module, model, **kwargs)


@pytest.fixture
def reference_vm(monkeypatch):
    """Run a block on the reference interpreter.

    ``with reference_vm():`` rebinds ``make_vm`` in every ``repro``
    module that imported it, so every execution, exploration and
    synthesis run inside the block builds :class:`InterpVM` — forked
    pool workers included, as they inherit the binding.  Leaving the
    block puts the compiled VM back.  ``reference_vm(False)`` is an
    empty block, so one loop body can run on both backends.
    """
    @contextlib.contextmanager
    def use(enabled=True):
        if not enabled:
            yield
            return
        with monkeypatch.context() as patch:
            for name, module in list(sys.modules.items()):
                if (name.split(".")[0] == "repro"
                        and getattr(module, "make_vm", None) is make_vm):
                    patch.setattr(module, "make_vm", make_interp_vm)
            yield
    return use

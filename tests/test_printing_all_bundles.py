"""Smoke coverage: every bundle renders through the IR printer.

Catches ``format_module`` crashes on real-world-sized IR and asserts
basic well-formedness of the output.
"""

import pytest

from repro.algorithms import (
    ALGORITHMS,
    CHASE_LEV_PTR,
    DEKKER,
    PETERSON,
    TREIBER_STACK,
)
from repro.ir import format_module

ALL_BUNDLES = dict(ALGORITHMS)
for extra in (CHASE_LEV_PTR, DEKKER, PETERSON, TREIBER_STACK):
    ALL_BUNDLES[extra.name] = extra


@pytest.mark.parametrize("name", sorted(ALL_BUNDLES))
def test_format_module(name):
    module = ALL_BUNDLES[name].compile()
    text = format_module(module)
    assert text.startswith("module")
    # One line per instruction plus headers.
    assert len(text.splitlines()) > module.instruction_count()
    for fn_name in module.functions:
        assert "func %s(" % fn_name in text

"""Eager buffered stores: under TSO/PSO the sleep levels run a store in
its thread's local burst, so a store is never a branch point there.

Under SC a store is a real shared write, and ``reduction="none"`` mirrors
the replay reference's tree, so both keep stores as branch points.  The
replay sweep of ``test_explore_equivalence.py`` checks that the smaller
search keeps every outcome and violation; this file checks that the
search is the intended one, on both VM backends.
"""

import pytest

from repro.ir import instructions as ins
from repro.litmus import LITMUS_TESTS, thread_results
from repro.sched import explorer
from repro.sched.explorer import REDUCTIONS, explore

MODELS = ["sc", "tso", "pso"]


@pytest.mark.parametrize("compiled", [True, False],
                         ids=["compiled", "interpreted"])
@pytest.mark.parametrize("reduction", REDUCTIONS)
@pytest.mark.parametrize("model", MODELS)
def test_stores_branch_only_where_they_must(monkeypatch, reference_vm,
                                            compiled, model, reduction):
    """At every visit over the catalog, count the step options whose
    thread's next instruction is a ``Store``."""
    with reference_vm(not compiled):
        options = explorer._options
        visits = []
        store_steps = []

        def recording_options(vm, enabled):
            opts = options(vm, enabled)
            visits.append(1)
            store_steps.extend(
                choice for choice, _ident, _fp in opts
                if choice[0] == "step"
                and isinstance(vm.peek(choice[1]), ins.Store))
            return opts

        monkeypatch.setattr(explorer, "_options", recording_options)
        for name in sorted(LITMUS_TESTS):
            # The unreduced tree of some tests is too large to walk whole;
            # its first paths show that stores branch there.
            result = explore(LITMUS_TESTS[name].compile(), model,
                             outcome_fn=thread_results, reduction=reduction,
                             max_paths=2_000)
            assert result.exact or reduction == "none", name
        assert visits
        if model != "sc" and reduction != "none":
            assert store_steps == []
        else:
            assert store_steps


@pytest.mark.parametrize("reduction", REDUCTIONS)
@pytest.mark.parametrize("model", MODELS)
def test_backends_explore_identically(reference_vm, model, reduction):
    runs = []
    for reference in (False, True):
        with reference_vm(reference):
            run = []
            for name in sorted(LITMUS_TESTS):
                result = explore(LITMUS_TESTS[name].compile(), model,
                                 outcome_fn=thread_results,
                                 reduction=reduction, max_paths=2_000)
                run.append((name, result.complete, result.outcomes,
                            result.violations, result.stats.as_dict()))
            runs.append(run)
    assert runs[0] == runs[1]

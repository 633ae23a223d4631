"""The differential oracle suite.

The key test here is the broken-model demonstration: a TSO variant that
flushes same-location stores newest-first (a coherence violation no real
store buffer commits) must be caught by oracle 1 — its outcomes are not
reproducible under PSO, so the ``tso ⊆ pso`` inclusion check fails.
"""

from types import SimpleNamespace

import pytest

from repro.fuzz.oracles import (
    OracleConfig,
    OracleReport,
    OutcomeSpec,
    _Checker,
    check_module,
    fully_fenced,
    thread_results,
)
from repro.litmus import LITMUS_TESTS
from repro.memory import make_model
from repro.memory.models import PSOModel, TSOModel
from repro.sched.explorer import explore
from repro.vm.driver import run_execution
from repro.sched.flush_random import FlushDelayScheduler

pytestmark = pytest.mark.fuzz


class LifoFlushTSOModel(TSOModel):
    """Deliberately broken TSO: flushes commit newest-first.

    Same-location stores therefore reach memory in reverse order — the
    final value of ``X = 1; X = 2`` can be 1, which no coherent model
    (PSO included) admits.  The ``name`` stays "tso" so the explorer's
    flush enumeration treats it as the TSO family.
    """

    def flush_one(self, tid, addr=None):
        buf = self._buffers.get(tid)
        if not buf:
            return False
        if addr is not None and buf[-1][0] != addr:
            return False
        if len(buf) > 1:
            self._buffers[tid] = buf[:-1]
        else:
            del self._buffers[tid]
        pending_addr, value, label = buf[-1]
        self._note_pop(tid)
        self._do_commit(tid, pending_addr, value, label)
        return True


def broken_factory(name):
    if name == "tso":
        return LifoFlushTSOModel()
    return make_model(name)


class FenceDroppingPSOModel(PSOModel):
    """Deliberately broken PSO: fences are no-ops.

    Any program with relaxed behaviour then keeps it even fully fenced,
    so oracle 2 (fenced_sc) fires on every violating input — the
    broad-trigger breakage the campaign failure-path test relies on.
    """

    def fence(self, tid, kind):
        pass


def fence_dropping_factory(name):
    if name == "pso":
        return FenceDroppingPSOModel()
    return make_model(name)


def small_budget_config(**kwargs):
    """Keep demonstration runs quick: tiny sampling/synthesis budgets."""
    defaults = dict(random_runs=10, synth_executions=40, synth_rounds=3,
                    synth_attempts=1)
    defaults.update(kwargs)
    return OracleConfig(**defaults)


def test_clean_program_passes_all_oracles():
    report = check_module(LITMUS_TESTS["mp_fenced"].compile(),
                          small_budget_config())
    assert report.ok
    assert report.inconclusive == []
    assert report.violating_models == []


def test_violating_program_passes_and_exercises_synthesis():
    report = check_module(LITMUS_TESTS["sb"].compile(),
                          small_budget_config())
    assert report.ok, report.failures
    assert report.violating_models == ["tso", "pso"]


def test_broken_lifo_tso_caught_by_inclusion_oracle():
    """Acceptance demo: the intentionally broken model (flush reordered
    per location) produces outcomes PSO cannot, and oracle 1 says so."""
    report = check_module(LITMUS_TESTS["coww"].compile(),
                          small_budget_config(
                              model_factory=broken_factory))
    assert not report.ok
    assert any(f.oracle == "inclusion" and f.model == "pso"
               for f in report.failures), report.failures


def test_fence_dropping_pso_caught_by_fenced_sc_oracle():
    report = check_module(LITMUS_TESTS["sb"].compile(),
                          small_budget_config(
                              model_factory=fence_dropping_factory))
    assert any(f.oracle == "fenced_sc" and f.model == "pso"
               for f in report.failures), report.failures


def test_fully_fenced_is_sc_equivalent():
    module = LITMUS_TESTS["sb"].compile()
    sc = explore(module, "sc", outcome_fn=thread_results)
    fenced = fully_fenced(module)
    for model in ("tso", "pso"):
        relaxed = explore(fenced, model, outcome_fn=thread_results)
        assert relaxed.complete
        assert relaxed.outcomes == sc.outcomes
    # The original (unfenced) module stays untouched by the clone.
    assert explore(module, "pso",
                   outcome_fn=thread_results).outcomes > sc.outcomes


def test_outcome_spec_flags_non_sc_outcome():
    module = LITMUS_TESTS["sb"].compile()
    result = run_execution(module, make_model("sc"),
                           FlushDelayScheduler(seed=0, flush_prob=0.0),
                           collect_predicates=False)
    assert result.usable
    admitting = OutcomeSpec({result.thread_results})
    assert admitting.check(result) is None
    rejecting = OutcomeSpec(frozenset())
    assert "not admitted under SC" in rejecting.check(result)


def test_random_subset_oracle_fires_on_doctored_exhaustive_set():
    """Unit demo for oracle 3: hand the checker an exhaustive set that
    is missing everything — the first usable random outcome must be
    reported as outside it."""
    module = LITMUS_TESTS["sb"].compile()
    cfg = small_budget_config()
    report = OracleReport()
    checker = _Checker(cfg, report)
    doctored = SimpleNamespace(outcomes=frozenset())
    checker.check_random_subset(module, {"tso": doctored,
                                         "pso": doctored})
    assert any(f.oracle == "random_subset" for f in report.failures)


def test_path_budget_exhaustion_is_inconclusive_not_failing():
    report = check_module(LITMUS_TESTS["sb"].compile(),
                          small_budget_config(max_paths=5,
                                              max_total_paths=15))
    assert report.ok
    assert report.inconclusive  # every exploration blew the tiny budget

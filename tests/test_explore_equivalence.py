"""Differential validation of the snapshot explorer.

The replay-based DFS in :mod:`tests.reference.replay_explore` is the
semantic reference; the snapshot engine in :mod:`repro.sched.explorer` must agree
with it exactly at *every* reduction level:

* identical outcome sets, violation sets, and completeness flags, and
* at ``reduction="none"``, an identical path count — the two engines
  walk the same tree, the new one just never replays a prefix.

The snapshot engine's own invariants are checked next to this file:
interned state keys and cached step options against the uncached
reference (``test_state_key_cache.py``), restores against their
snapshots (``test_vm_snapshot.py``, ``test_snapshot_isolation.py``), the
pinned ``sleep+cache`` counters (``test_explore_stats.py``), same states
and each edge once (``test_cache_revisits.py``), and the eager stores,
calls and returns and waiting joins of the sleep levels
(``test_eager_stores.py``, ``test_eager_calls.py``,
``test_lifecycle_footprints.py``), and the static persistent
singletons (``test_persistent_sets.py``).

Tier-1 runs every test here, on every supported Python.  The full sweep
(whole litmus catalog, corpus reproducers, fresh fuzz programs per
model) is ``slow``-marked; ``-m "not slow"`` leaves it out for a quick
loop.
"""

import glob
import os

import pytest

from perfbench.litmus_inputs import SB3_SOURCE, ring_outcomes
from repro.fuzz.generator import ProgramGenerator
from repro.litmus import LITMUS_TESTS, thread_results
from repro.minic import compile_source
from repro.sched.explorer import REDUCTIONS, explore
from tests.reference.replay_explore import explore as explore_replay

MODELS = ["sc", "tso", "pso"]
CORPUS_FILES = sorted(glob.glob(
    os.path.join(os.path.dirname(__file__), "corpus", "*.c")))

#: Fuzz seeds per memory model for the slow sweep.
FUZZ_SEEDS = 10


def assert_equivalent(module, model, max_paths=60_000, max_steps=2_000):
    """The new engine matches the replay baseline at every reduction.

    Returns the baseline and the new engine's result per reduction.
    """
    base = explore_replay(module, model, outcome_fn=thread_results,
                          max_paths=max_paths, max_steps=max_steps)
    runs = {}
    for reduction in REDUCTIONS:
        new = runs[reduction] = explore(
            module, model, outcome_fn=thread_results,
            max_paths=max_paths, max_steps=max_steps, reduction=reduction)
        assert new.complete == base.complete, (model, reduction)
        assert new.outcomes == base.outcomes, (model, reduction)
        assert new.violations == base.violations, (model, reduction)
        if reduction == "none":
            assert new.paths == base.paths, (model, reduction)
        else:
            assert new.paths <= base.paths, (model, reduction)
    return base, runs


# ----------------------------------------------------------------------
# Fast subset (tier-1)

@pytest.mark.parametrize("name", ["sb", "mp", "coww", "sb_one_fence"])
@pytest.mark.parametrize("model", MODELS)
def test_litmus_equivalence_fast(name, model):
    assert_equivalent(LITMUS_TESTS[name].compile(), model)


def test_sb3_equivalence_and_reduction():
    """The 3-thread store-buffering ring under SC: every level agrees
    with the replay reference, and ``sleep+cache`` walks at most a fifth
    of its paths."""
    base, runs = assert_equivalent(compile_source(SB3_SOURCE, "sb3"), "sc")
    assert base.paths >= 5 * runs["sleep+cache"].paths


@pytest.mark.parametrize("model", ["tso", "pso"])
def test_sb3_weak_outcomes_exact(model):
    """Under TSO/PSO the ring's unreduced tree is too large to replay in
    tier-1, so the hand-derived outcome set stands in for the replay
    reference."""
    result = explore(compile_source(SB3_SOURCE, "sb3"), model,
                     outcome_fn=thread_results, reduction="sleep+cache")
    assert result.exact
    assert result.outcomes == ring_outcomes(3)[model]


def test_reduction_actually_reduces():
    module = LITMUS_TESTS["sb"].compile()
    base = explore_replay(module, "tso", outcome_fn=thread_results,
                          max_paths=60_000)
    reduced = explore(module, "tso", outcome_fn=thread_results,
                      max_paths=60_000, reduction="sleep+cache")
    assert reduced.paths * 5 <= base.paths
    assert reduced.stats.pruned > 0
    assert reduced.stats.estimated_unreduced > reduced.paths


def test_none_reduction_reports_no_pruning():
    module = LITMUS_TESTS["sb"].compile()
    result = explore(module, "tso", outcome_fn=thread_results,
                     max_paths=60_000, reduction="none")
    assert result.stats.pruned == 0
    assert result.stats.cache_hits == 0
    assert result.stats.estimated_unreduced == result.paths


def test_unknown_reduction_rejected():
    module = LITMUS_TESTS["sb"].compile()
    with pytest.raises(ValueError):
        explore(module, "tso", reduction="bogus")


def test_budget_truncation_reported():
    module = LITMUS_TESTS["sb"].compile()
    result = explore(module, "tso", outcome_fn=thread_results,
                     max_paths=3, reduction="none")
    assert result.paths == 3
    assert not result.complete


def test_stale_replay_branch_raises():
    """Satellite regression: an out-of-range prefix index used to be
    silently clamped to option 0, corrupting the search invisibly."""
    from tests.reference.replay_explore import _run_with_prefix

    module = LITMUS_TESTS["sb"].compile()
    with pytest.raises(RuntimeError, match="stale replay branch"):
        _run_with_prefix(module, lambda: __import__(
            "repro.memory.models", fromlist=["make_model"]
        ).make_model("tso"), "main", [99], 2_000, thread_results)


# ----------------------------------------------------------------------
# Full sweep (slow; tier-1 runs it, -m "not slow" skips it)

@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
@pytest.mark.parametrize("model", MODELS)
def test_litmus_equivalence_full(name, model):
    assert_equivalent(LITMUS_TESTS[name].compile(), model,
                      max_paths=120_000)


@pytest.mark.slow
@pytest.mark.parametrize("path", CORPUS_FILES,
                         ids=[os.path.basename(p) for p in CORPUS_FILES])
@pytest.mark.parametrize("model", MODELS)
def test_corpus_equivalence(path, model):
    with open(path) as handle:
        module = compile_source(handle.read(), os.path.basename(path))
    assert_equivalent(module, model)


@pytest.mark.slow
@pytest.mark.parametrize("model", MODELS)
def test_fuzz_program_equivalence(model):
    generator = ProgramGenerator()
    for seed in range(FUZZ_SEEDS):
        module = generator.generate(seed).compile()
        assert_equivalent(module, model, max_paths=120_000,
                          max_steps=4_000)

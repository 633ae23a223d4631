"""The state cache's stored sleep sets: no lost state, each edge once.

A ``sleep+cache`` cache entry stores one sleep set per state, the
intersection of every sleep set the state was visited with.  A revisit
branches only on the options asleep at every earlier visit and awake
now (Godefroid, Holzmann and Pirottin, "State-space caching
revisited"), so it skips the branches the state has already taken.
Two properties pin that down, both observed through the uncached
reference key (``tests/reference/state_key.py``):

* **Same states.**  On a module with a loop or recursion, the states
  ``_visit`` sees under ``sleep+cache`` are exactly those it sees
  under ``sleep`` (no cache), with the same outcomes, violations and
  exactness.  Skipping an already-taken branch must never lose a
  state.  On a loop-free module the static persistent singletons cut
  states, and which ones depends on the sleep sets a state is reached
  with, so there the ``sleep+cache`` states must be a subset of those
  of a ``sleep`` run with the singletons switched off (every reachable
  state), again with the same outcomes, violations and exactness.
* **Each edge once.**  When the search closes no cycle, no (state,
  choice) pair passes through ``_edge`` twice.  A revisit whose sleep
  set is not covered used to re-run every awake branch, including those
  the state had already taken.

The litmus catalog, the corpus and four fuzz seeds take about 3 s;
``sb3``'s states, ``sb4``'s edges and fuzz seeds 4-199 are the
``slow``-marked sweep (about 50 s).  Tier-1 runs both, on every
supported Python; ``-m "not slow"`` leaves the sweep out for a quick
loop.
"""

import glob
import os
from collections import Counter

import pytest

from perfbench.litmus_inputs import SB3_SOURCE, SB4_SOURCE
from repro.fuzz.generator import ProgramGenerator
from repro.litmus import LITMUS_TESTS, thread_results
from repro.memory.models import make_model
from repro.minic import compile_source
from repro.sched import explorer
from repro.vm.compile import make_vm
from tests.reference.state_key import state_key

MODELS = ["sc", "tso", "pso"]
CORPUS_FILES = sorted(glob.glob(
    os.path.join(os.path.dirname(__file__), "corpus", "*.c")))

#: Path budget large enough that ``sleep`` (no cache) completes on
#: every program below; a cut search would hide states.
MAX_PATHS = 120_000

#: Fuzz programs per model: a few in tier-1, the rest in the sweep.
FAST_FUZZ_SEEDS = range(4)
SLOW_FUZZ_SEEDS = range(4, 200)

_SOURCES = {"sb3": SB3_SOURCE, "sb4": SB4_SOURCE}


def _module(name):
    if name in _SOURCES:
        return compile_source(_SOURCES[name], name)
    return LITMUS_TESTS[name].compile()


def _corpus_module(path):
    with open(path) as handle:
        return compile_source(handle.read(), os.path.basename(path))


@pytest.fixture
def traced(monkeypatch):
    """``explore`` that records the reference key of every visited
    state and, under ``sleep+cache``, every executed (state, choice)
    edge; returns ``(result, visited keys, edge counts)``."""
    keys = set()
    edges = Counter()
    edge = explorer._Search._edge
    visit = explorer._Search._visit

    def recording_edge(search, choice):
        if choice is not None and search.cache is not None:
            # The node's state: the live one for its first child, a
            # restored snapshot for the others.
            edges[state_key(search.vm), choice] += 1
        return edge(search, choice)

    def recording_visit(search, sleep, enabled):
        keys.add(state_key(search.vm))
        return visit(search, sleep, enabled)

    monkeypatch.setattr(explorer._Search, "_edge", recording_edge)
    monkeypatch.setattr(explorer._Search, "_visit", recording_visit)

    def run(module, model, reduction, max_steps=2_000, persistent=True):
        keys.clear()
        edges.clear()
        with monkeypatch.context() as patch:
            if not persistent:
                patch.setattr(explorer, "_access_tables", lambda vm: None)
            result = explorer.explore(module, model,
                                      outcome_fn=thread_results,
                                      max_paths=MAX_PATHS,
                                      max_steps=max_steps,
                                      reduction=reduction)
        return result, set(keys), Counter(edges)
    return run


def loop_free(module, model):
    """Whether the static persistent singletons apply to *module*."""
    return explorer._access_tables(make_vm(module, make_model(model))) \
        is not None


def check_revisits(traced, module, model, max_steps=2_000,
                   same_states=True):
    """Without a closed cycle, ``sleep+cache`` runs each edge once; and
    (if *same_states*) it visits the states ``sleep`` visits (a subset
    of every reachable state, on a loop-free module), with the same
    outcomes, violations and exactness."""
    cached, cached_keys, edges = traced(module, model, "sleep+cache",
                                        max_steps)
    assert cached.complete
    # A revisit of a state still on the stack branches on every awake
    # option (the cycle semantics): no claim about edges then.
    if not cached.stats.cycles:
        repeated = {edge: n for edge, n in edges.items() if n > 1}
        assert not repeated, "%d of %d edges ran again" % (len(repeated),
                                                           len(edges))
    if not same_states:
        return
    if loop_free(module, model):
        plain, plain_keys, _ = traced(module, model, "sleep", max_steps,
                                      persistent=False)
        assert cached_keys <= plain_keys
    else:
        plain, plain_keys, _ = traced(module, model, "sleep", max_steps)
        assert cached_keys == plain_keys
    assert plain.complete, "raise MAX_PATHS: the uncached search was cut"
    assert cached.outcomes == plain.outcomes
    assert cached.violations == plain.violations
    assert cached.exact == plain.exact


def _fuzz_module(seed):
    return ProgramGenerator().generate(seed).compile()


# ----------------------------------------------------------------------
# Fast subset (tier-1)

@pytest.mark.parametrize("name", sorted(LITMUS_TESTS) + ["sb3"])
@pytest.mark.parametrize("model", MODELS)
def test_litmus(traced, name, model):
    # sb3 without the cache walks 31,895 paths under tso/pso: its
    # states are compared in the sweep.
    check_revisits(traced, _module(name), model,
                   same_states=name != "sb3")


@pytest.mark.parametrize("path", CORPUS_FILES,
                         ids=[os.path.basename(p) for p in CORPUS_FILES])
@pytest.mark.parametrize("model", MODELS)
def test_corpus(traced, path, model):
    check_revisits(traced, _corpus_module(path), model)


@pytest.mark.parametrize("seed", FAST_FUZZ_SEEDS)
@pytest.mark.parametrize("model", MODELS)
def test_fuzz(traced, seed, model):
    check_revisits(traced, _fuzz_module(seed), model, max_steps=4_000)


# ----------------------------------------------------------------------
# Full sweep (slow; tier-1 runs it, -m "not slow" skips it)

@pytest.mark.slow
@pytest.mark.parametrize("model", MODELS)
def test_sb3_same_states(traced, model):
    check_revisits(traced, _module("sb3"), model)


@pytest.mark.slow
@pytest.mark.parametrize("model", MODELS)
def test_sb4_edges_once(traced, model):
    check_revisits(traced, _module("sb4"), model, same_states=False)


@pytest.mark.slow
@pytest.mark.parametrize("model", MODELS)
def test_fuzz_full(traced, model):
    for seed in SLOW_FUZZ_SEEDS:
        check_revisits(traced, _fuzz_module(seed), model, max_steps=4_000)

"""The explorer's cached state key and step options equal the uncached
reference at every node.

The explorer keeps each state-key component next to the state it
describes (``Thread.key``, the memory and buffer fingerprints) and each
thread's step option in ``Thread.step_option``, clearing them only where
that state changes.  A missed invalidation would silently merge distinct
states in the cache or branch on a stale footprint, so this test wraps
both functions and compares every value they return with a from-scratch
recomputation (``tests/reference/state_key.py``).
"""

import glob
import os

import pytest

from repro.litmus import LITMUS_TESTS, thread_results
from repro.minic import compile_source
from repro.sched import explorer
from tests.reference import state_key as reference

MODELS = ["sc", "tso", "pso"]
CORPUS_FILES = sorted(glob.glob(
    os.path.join(os.path.dirname(__file__), "corpus", "*.c")))


@pytest.fixture
def checked_explore(monkeypatch):
    """``explore`` with every cached key and option checked; returns
    ``(result, nodes checked)``."""
    checked = []
    cached_key = explorer._state_key
    cached_options = explorer._options

    def state_key(vm):
        key = cached_key(vm)
        assert key == reference.state_key(vm)
        checked.append(1)
        return key

    def options(vm, enabled):
        opts = cached_options(vm, enabled)
        assert opts == reference.options(vm)
        return opts

    monkeypatch.setattr(explorer, "_state_key", state_key)
    monkeypatch.setattr(explorer, "_options", options)

    def run(module, model, **kwargs):
        del checked[:]
        result = explorer.explore(module, model, outcome_fn=thread_results,
                                  **kwargs)
        return result, len(checked)
    return run


@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
@pytest.mark.parametrize("model", MODELS)
def test_litmus_cached_key_matches_reference(checked_explore, name, model):
    result, nodes = checked_explore(LITMUS_TESTS[name].compile(), model)
    assert result.complete
    assert nodes > 0


@pytest.mark.parametrize("path", CORPUS_FILES,
                         ids=[os.path.basename(p) for p in CORPUS_FILES])
@pytest.mark.parametrize("model", MODELS)
def test_corpus_cached_key_matches_reference(checked_explore, path, model):
    with open(path) as handle:
        module = compile_source(handle.read(), os.path.basename(path))
    result, nodes = checked_explore(module, model, max_paths=60_000)
    assert result.complete
    assert nodes > 0


#: Exercises the invalidation points the litmus catalog does not reach:
#: page allocation and free, calls and returns (multi-frame threads),
#: CAS, a fence, and a join that blocks.
HEAP_SOURCE = """
int P; int X; int Y;
int put(int* p, int v) { *p = v; return v; }
int t1() {
  int* p = pagealloc(2);
  put(p, 5);
  X = 1;
  fence();
  P = p;
  int r = Y;
  return r;
}
int main() {
  int t = fork(t1);
  Y = 1;
  int ok = cas(&X, 1, 2);
  join(t);
  int* p = P;
  int v = *p;
  pagefree(p);
  return ok * 10 + v;
}
"""


@pytest.mark.parametrize("model", MODELS)
def test_heap_and_calls_cached_key_matches_reference(checked_explore, model):
    result, nodes = checked_explore(compile_source(HEAP_SOURCE, "heap"),
                                    model)
    assert result.complete and not result.violations
    assert nodes > 0

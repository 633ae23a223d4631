"""The explorer's interned state key identifies states exactly as the
uncached reference key does, and its cached step options equal the
reference at every node.

The explorer interns each thread's full state tuple as a small int per
search (``Thread.key``) and keeps the memory and buffer fingerprints
next to the state they describe, clearing each only where that state
changes; it caches each thread's step option in ``Thread.step_option``
the same way.  The interned key cannot equal the reference key, so the
test checks the map between the two: at every node of an exploration,
equal interned keys must mean equal reference keys
(``tests/reference/state_key.py``), and the other way round.  A missed
invalidation would break the first direction and silently merge
distinct states in the cache; a key that tells equal states apart (two
ids for one thread state, say) would break the second and lose cache
hits.  Options are compared with a from-scratch recomputation.
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


class Bijection:
    """Interned key <-> reference key, checked as nodes are keyed."""

    def __init__(self) -> None:
        self.reference_of = {}
        self.interned_of = {}

    def add(self, interned, ref) -> None:
        known = self.reference_of.setdefault(interned, ref)
        assert known == ref, \
            "one interned key for two states:\n  %r\n  %r" % (known, ref)
        known = self.interned_of.setdefault(ref, interned)
        assert known == interned, \
            "two interned keys for one state: %r, %r" % (known, interned)


@pytest.fixture
def checked_explore(monkeypatch):
    """``explore`` with every interned key and option checked; returns
    ``(result, nodes checked)``.  A fresh bijection per exploration: the
    interned ids mean something only inside one search."""
    checked = []
    bijection = []
    cached_key = explorer._state_key
    cached_options = explorer._options

    def state_key(vm, thread_ids):
        key = cached_key(vm, thread_ids)
        bijection[0].add(key, reference.state_key(vm))
        checked.append(1)
        return key

    def options(vm, enabled):
        opts = cached_options(vm, enabled)
        # The reference leaves out the joins that would only block, as
        # the sleep levels do.
        assert [o for o in opts if o[2] is not explorer._WAIT_FP] \
            == reference.options(vm)
        return opts

    monkeypatch.setattr(explorer, "_state_key", state_key)
    monkeypatch.setattr(explorer, "_options", options)

    def run(module, model, **kwargs):
        del checked[:]
        bijection[:] = [Bijection()]
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


def test_stale_thread_key_breaks_the_bijection(checked_explore,
                                               monkeypatch):
    """The check has teeth: when ``_edge`` leaves the stepped thread's
    interned id in place (its ``Thread.key`` clear skipped), the stepped
    state reuses the id of the state before the step, and the check
    finds one interned key for two states.  A local burst after the
    step clears the key on its own, so the id is put back only when the
    burst did not run the thread.  On ``sb`` the burst always runs the
    stepped thread (each load is followed by a return, which the sleep
    levels run in the burst), so the mutation never fires there; on
    ``2+2w`` a store under SC is followed by another store, and it
    does."""
    edge = explorer._Search._edge

    def stale_edge(search, choice):
        if choice is None or choice[0] != "step":
            return edge(search, choice)
        vm = search.vm
        tid = choice[1]
        stale = vm.threads[tid].key
        ran_locally = []
        run_local = vm.run_local

        def recording_run_local(t, budget, local):
            executed = run_local(t, budget, local)
            if executed and t == tid:
                ran_locally.append(t)
            return executed

        vm.run_local = recording_run_local
        try:
            enabled = edge(search, choice)
        finally:
            del vm.run_local
        if not ran_locally and tid in vm.threads:
            vm.threads[tid].key = stale
        return enabled

    monkeypatch.setattr(explorer._Search, "_edge", stale_edge)
    with pytest.raises(AssertionError, match="one interned key for two"):
        checked_explore(LITMUS_TESTS["2+2w"].compile(), "sc")

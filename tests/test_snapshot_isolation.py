"""Snapshot isolation: every restore reinstates exactly the state its
snapshot captured.

Snapshots share threads, frames and shared-memory containers with the
live VM copy-on-write, and share completed history records outright.  A
write to any shared object — a thread stepped without being cloned, a
memory container mutated while shared, an in-flight operation record
completed in place — would silently change what a later restore brings
back.  This oracle wraps ``VM.snapshot`` and ``VM.restore`` during real
explorations: at every snapshot it records the state from scratch (the
uncached reference key of ``tests/reference/state_key.py`` plus
everything the key leaves out), and at every restore it asserts that the
restored state equals that record.  It also checks, at every visited
node, that ``vm.threads`` iterates in ascending tid order, which the
explorer's state key relies on.
"""

import glob
import os

import pytest

from repro.litmus import LITMUS_TESTS, thread_results
from repro.minic import compile_source
from repro.sched import explorer
from repro.vm.interp import VM
from tests.reference import state_key as reference
from tests.test_state_key_cache import HEAP_SOURCE

MODELS = ["sc", "tso", "pso"]
BACKENDS = [True, False]
BACKEND_IDS = ["compiled", "interpreted"]
CORPUS_FILES = sorted(glob.glob(
    os.path.join(os.path.dirname(__file__), "corpus", "*.c")))


def _full_state(vm):
    """Everything a restore must reinstate, rebuilt from the raw state."""
    threads = tuple(
        (tid, tuple((frame.ret_dst, frame.op_index)
                    for frame in thread.frames))
        for tid, thread in sorted(vm.threads.items()))
    history = tuple((op.tid, op.name, op.args, op.result, op.call_seq,
                     op.ret_seq) for op in vm.history)
    return (reference.state_key(vm), threads, history,
            tuple(vm.memory.live_regions()),
            vm.model.depth_hwm, tuple(vm.tids_with_pending()),
            vm.steps, vm.seq, vm.flushes, vm._next_tid,
            frozenset(vm._runnable), tuple(sorted(vm._blocked_join.items())))


def _assert_tid_order(vm):
    tids = list(vm.threads)
    assert tids == sorted(tids), "thread table out of tid order: %s" % tids


@pytest.fixture
def isolated_explore(monkeypatch, reference_vm):
    """``explore`` with every restore checked against its snapshot;
    returns ``(result, snapshots, restores)``."""
    records = {}
    restores = []
    snapshot = VM.snapshot
    restore = VM.restore
    visit = explorer._Search._visit

    def checked_snapshot(vm):
        _assert_tid_order(vm)
        state = _full_state(vm)
        snap = snapshot(vm)
        assert _full_state(vm) == state, "snapshot changed the live state"
        # The snapshot is kept alive with its record, so its id is not
        # reused by a later snapshot.
        records[id(snap)] = (snap, state)
        return snap

    def checked_restore(vm, snap):
        restore(vm, snap)
        assert _full_state(vm) == records[id(snap)][1]
        _assert_tid_order(vm)
        restores.append(1)

    def checked_visit(search, sleep, enabled):
        _assert_tid_order(search.vm)
        return visit(search, sleep, enabled)

    monkeypatch.setattr(VM, "snapshot", checked_snapshot)
    monkeypatch.setattr(VM, "restore", checked_restore)
    monkeypatch.setattr(explorer._Search, "_visit", checked_visit)

    def run(compiled, module, model, operations=(), **kwargs):
        with reference_vm(not compiled), monkeypatch.context() as patch:
            if operations:
                make_vm = explorer.make_vm

                def recording_make_vm(*args, **make_kwargs):
                    return make_vm(*args, operations=operations,
                                   **make_kwargs)
                patch.setattr(explorer, "make_vm", recording_make_vm)
            result = explorer.explore(module, model,
                                      outcome_fn=thread_results, **kwargs)
        return result, len(records), len(restores)
    return run


@pytest.mark.parametrize("compiled", BACKENDS, ids=BACKEND_IDS)
@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
@pytest.mark.parametrize("model", MODELS)
def test_litmus_restores_are_isolated(isolated_explore, compiled, name,
                                      model):
    result, snapshots, restores = isolated_explore(
        compiled, LITMUS_TESTS[name].compile(), model)
    assert result.complete
    assert snapshots > 0 and restores > 0


@pytest.mark.parametrize("compiled", BACKENDS, ids=BACKEND_IDS)
@pytest.mark.parametrize("path", CORPUS_FILES,
                         ids=[os.path.basename(p) for p in CORPUS_FILES])
@pytest.mark.parametrize("model", MODELS)
def test_corpus_restores_are_isolated(isolated_explore, compiled, path,
                                      model):
    with open(path) as handle:
        module = compile_source(handle.read(), os.path.basename(path))
    result, snapshots, restores = isolated_explore(
        compiled, module, model, max_paths=60_000)
    assert result.complete
    assert snapshots > 0 and restores > 0


@pytest.mark.parametrize("compiled", BACKENDS, ids=BACKEND_IDS)
@pytest.mark.parametrize("model", MODELS)
def test_heap_calls_and_records_are_isolated(isolated_explore, compiled,
                                             model):
    """Page allocation and free, CAS, a blocking join, and calls of a
    recorded operation, so snapshots are taken while ``put`` records
    are in flight."""
    result, snapshots, restores = isolated_explore(
        compiled, compile_source(HEAP_SOURCE, "heap"), model,
        operations=("put",))
    assert result.complete and not result.violations
    assert snapshots > 0 and restores > 0

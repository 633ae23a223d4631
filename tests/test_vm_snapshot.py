"""VM snapshot/restore: the foundation of the fork-and-backtrack DFS.

A snapshot must behave as a complete, independent copy of the execution
state: restoring it (any number of times) must reproduce the exact
behaviour of a fresh run replayed to the same point, under every memory
model.  It shares threads and memory with the VM copy-on-write, so
independence holds only if every mutation clones what it touches first.
"""

import pytest

from repro.memory.models import make_model
from repro.minic import compile_source
from repro.vm.compile import CompiledVM, make_vm
from repro.vm.interp import LOCAL_OPS

from tests.reference.interp_vm import InterpVM

SB_SOURCE = """
int X; int Y;
int t1() { X = 1; int r = Y; return r; }
int main() {
  int t = fork(t1);
  Y = 1;
  int r = X;
  join(t);
  return r;
}
"""

OP_SOURCE = """
int X;
int bump() { X = X + 1; return X; }
int main() {
  int a = bump();
  int b = bump();
  return a + b;
}
"""

MODELS = ["sc", "tso", "pso"]


def _drive(vm, steps):
    """Round-robin *steps* enabled-thread steps (deterministic)."""
    for _ in range(steps):
        enabled = vm.enabled_tids()
        if not enabled:
            return
        vm.step(enabled[0])


def _run_to_end(vm):
    while True:
        enabled = vm.enabled_tids()
        if enabled:
            vm.step(enabled[0])
        elif vm.tids_with_pending():
            vm.flush_one(vm.tids_with_pending()[0])
        else:
            return tuple(vm.threads[tid].result for tid in sorted(vm.threads))


def _observable_state(vm):
    return (
        {tid: (t.status.value, t.join_target, t.result,
               [(f.fn.name, f.ip, dict(f.regs)) for f in t.frames])
         for tid, t in vm.threads.items()},
        vm.memory.fingerprint(),
        vm.model.fingerprint(),
        vm.steps, vm.seq, vm.flushes, vm._next_tid,
    )


@pytest.mark.parametrize("model", MODELS)
def test_snapshot_restore_roundtrip(model):
    module = compile_source(SB_SOURCE, "sb")
    vm = make_vm(module, make_model(model), max_steps=500)
    _drive(vm, 6)
    snap = vm.snapshot()
    before = _observable_state(vm)

    first = _run_to_end(vm)
    assert _observable_state(vm) != before  # execution really moved

    vm.restore(snap)
    assert _observable_state(vm) == before
    second = _run_to_end(vm)
    assert second == first  # deterministic continuation reproduced


@pytest.mark.parametrize("model", MODELS)
def test_snapshot_is_isolated_from_execution(model):
    """Running past a snapshot must not mutate the snapshot."""
    module = compile_source(SB_SOURCE, "sb")
    vm = make_vm(module, make_model(model), max_steps=500)
    _drive(vm, 5)
    snap = vm.snapshot()
    reference = vm.snapshot()
    _run_to_end(vm)

    vm.restore(snap)
    restored = _observable_state(vm)
    vm.restore(reference)
    assert _observable_state(vm) == restored


def _local_tids(vm):
    return [tid for tid in vm.enabled_tids()
            if vm.peek(tid).__class__ in LOCAL_OPS]


@pytest.mark.parametrize("model", MODELS)
def test_restore_shares_until_first_mutation(model):
    """A restore adopts the snapshot's threads and memory containers
    without copying them.  The first step or local burst of a thread
    clones that thread alone, and the first write copies memory, so the
    snapshot still holds its state for the next restore."""
    module = compile_source(SB_SOURCE, "sb")
    for cls in (InterpVM, CompiledVM):
        vm = cls(module, make_model(model), max_steps=500)
        _drive(vm, 2)
        guard = 0
        while not _local_tids(vm):
            _drive(vm, 1)
            guard += 1
            assert guard < 50, "never reached a thread-local instruction"
        snap = vm.snapshot()
        expected = _observable_state(vm)
        first = _run_to_end(vm)

        vm.restore(snap)
        assert all(vm.threads[tid] is snap.threads[tid] for tid in vm.threads)
        assert vm.memory.cells is snap.memory[0]
        tid = _local_tids(vm)[0]
        assert vm.run_local(tid, 1_000) > 0
        assert vm.threads[tid] is not snap.threads[tid]
        assert all(vm.threads[other] is snap.threads[other]
                   for other in vm.threads if other != tid)

        vm.restore(snap)
        assert _observable_state(vm) == expected
        assert _run_to_end(vm) == first
        vm.restore(snap)
        assert _observable_state(vm) == expected


@pytest.mark.parametrize("model", MODELS)
def test_restore_rebuilds_scheduling_sets(model):
    """enabled_tids/tids_with_pending are incremental sets; a restore
    must leave them consistent with a full scan of the thread table."""
    module = compile_source(SB_SOURCE, "sb")
    vm = make_vm(module, make_model(model), max_steps=500)
    _drive(vm, 4)
    snap = vm.snapshot()
    _run_to_end(vm)
    vm.restore(snap)

    runnable_scan = sorted(
        tid for tid, t in vm.threads.items()
        if t.status.value == "runnable"
        or (t.status.value == "blocked_join"
            and vm.threads[t.join_target].finished))
    assert vm.enabled_tids() == runnable_scan
    pending_scan = sorted(tid for tid in vm.threads
                          if vm.model.has_pending(tid))
    assert vm.tids_with_pending() == pending_scan


def _enabled_scan(vm):
    return sorted(
        tid for tid, t in vm.threads.items()
        if t.status.value == "runnable"
        or (t.status.value == "blocked_join"
            and vm.threads[t.join_target].finished))


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("cls", [CompiledVM, InterpVM],
                         ids=["compiled", "interpreted"])
def test_cached_enabled_tids_follow_every_change(cls, model):
    """``enabled_tids`` caches its sorted list until a spawn, a finish,
    a blocking join or a join completion changes it.  Stepping the
    lowest tid first makes main fork, block in join, and wake when t1
    finishes; at every point, and after restoring each snapshot taken
    on the way, the cached list equals a full scan."""
    vm = cls(compile_source(SB_SOURCE, "sb"), make_model(model),
             max_steps=500)
    snaps = []
    while True:
        assert vm.enabled_tids() == _enabled_scan(vm)
        snaps.append((vm.snapshot(), _enabled_scan(vm)))
        enabled = vm.enabled_tids()
        if enabled:
            vm.step(enabled[0])
        elif vm.tids_with_pending():
            vm.flush_one(vm.tids_with_pending()[0])
        else:
            break
    assert any(t.join_target is not None
               for snap, _ in snaps for t in snap.threads.values())
    for snap, expected in reversed(snaps):
        vm.restore(snap)
        assert vm.enabled_tids() == expected


@pytest.mark.parametrize("cls", [CompiledVM, InterpVM],
                         ids=["compiled", "interpreted"])
def test_history_cloned_with_inflight_operations(cls):
    """Snapshots taken inside a recorded operation hold their own copy of
    the in-flight record, which frames reach through ``op_index``, so
    completing the restored run does not retroactively complete the
    finished history's record, nor the snapshot's."""
    module = compile_source(OP_SOURCE, "ops")
    vm = cls(module, make_model("sc"), operations=("bump",), max_steps=500)
    # Step until we are inside the first bump() call.
    while not any(f.op_index is not None
                  for t in vm.threads.values() for f in t.frames):
        vm.step(vm.enabled_tids()[0])
    snap = vm.snapshot()
    in_flight = [op for op in vm.history if not op.complete]
    assert in_flight, "expected an in-flight operation"

    _run_to_end(vm)
    assert all(op.complete for op in vm.history)
    finished_history = vm.history

    for _ in range(2):
        vm.restore(snap)
        assert vm.history is not finished_history
        frames = [f for t in vm.threads.values() for f in t.frames
                  if f.op_index is not None]
        assert frames
        for frame in frames:
            record = vm.history.operations[frame.op_index]
            assert not record.complete
            assert record is not finished_history.operations[frame.op_index]
        _run_to_end(vm)
        assert all(op.complete for op in vm.history)


# ----------------------------------------------------------------------
# Compiled backend (repro.vm.compile): snapshots must stay valid across
# closure-compiled execution, including fused superinstruction runs.

FUSED_SOURCE = """
int X;
int main() {
  int a = 1;
  int b = 2;
  int c = a + b;
  int d = c * 3;
  int e = d - a;
  X = e;
  return e + c;
}
"""


def _run_local_to_end(vm):
    """Finish the run preferring bulk run_local bursts (fused path)."""
    while True:
        enabled = vm.enabled_tids()
        if enabled:
            tid = enabled[0]
            if not vm.run_local(tid, 1_000):
                vm.step(tid)
        elif vm.tids_with_pending():
            vm.flush_one(vm.tids_with_pending()[0])
        else:
            return tuple(vm.threads[tid].result for tid in sorted(vm.threads))


@pytest.mark.parametrize("model", MODELS)
def test_compiled_snapshot_restore_roundtrip(model):
    module = compile_source(SB_SOURCE, "sb")
    vm = CompiledVM(module, make_model(model), max_steps=500)
    _drive(vm, 6)
    snap = vm.snapshot()
    before = _observable_state(vm)

    first = _run_to_end(vm)
    vm.restore(snap)
    assert _observable_state(vm) == before
    assert _run_to_end(vm) == first


@pytest.mark.parametrize("model", MODELS)
def test_compiled_and_interpreted_snapshots_agree(model):
    """Step-for-step, both backends expose the same observable state."""
    module = compile_source(SB_SOURCE, "sb")
    vms = [cls(module, make_model(model), max_steps=500)
           for cls in (InterpVM, CompiledVM)]
    for _ in range(6):
        for vm in vms:
            _drive(vm, 1)
        assert _observable_state(vms[0]) == _observable_state(vms[1])
    assert _run_to_end(vms[0]) == _run_to_end(vms[1])


def test_restore_mid_superinstruction_resumes_singly():
    """A snapshot taken at an interior offset of a fused run must restore
    and continue correctly: every offset keeps a single-op closure, so
    the burst loop re-enters the run one op at a time."""
    module = compile_source(FUSED_SOURCE, "fused")
    vm = CompiledVM(module, make_model("sc"), max_steps=500)
    code = vm._code_for(module.functions["main"])
    head = next(i for i, n in enumerate(code.ops) if n > 1)
    interior = head + 1  # inside the fused run, not at its head

    guard = 0
    while vm.threads[0].top.ip != interior:
        vm.step(0)
        guard += 1
        assert guard < 50, "never reached the fused run interior"
    snap = vm.snapshot()
    before = _observable_state(vm)

    first = _run_local_to_end(vm)
    vm.restore(snap)
    assert _observable_state(vm) == before
    second = _run_local_to_end(vm)
    assert second == first

    # And a plain single-step continuation agrees too.
    vm.restore(snap)
    assert _run_to_end(vm) == first


@pytest.mark.parametrize("model", ["tso", "pso"])
def test_snapshot_captures_buffered_stores(model):
    module = compile_source(SB_SOURCE, "sb")
    vm = make_vm(module, make_model(model), max_steps=500)
    # Step main until its store to Y is buffered.
    while not vm.model.has_pending(0):
        vm.step(0)
    snap = vm.snapshot()
    pending_before = vm.model.pending_addrs(0)
    vm.flush_one(0)
    assert vm.model.pending_addrs(0) != pending_before or \
        not vm.model.has_pending(0)
    vm.restore(snap)
    assert vm.model.pending_addrs(0) == pending_before
    assert vm.tids_with_pending() == [0]

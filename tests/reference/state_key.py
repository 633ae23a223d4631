"""Uncached state key and branch options: the reference for the
explorer's cached ones.

:func:`state_key` is the explorer's canonical state encoding as it was
before its components were cached next to the state they describe, and
:func:`memory_fingerprint` / :func:`buffer_fingerprint` are the memory
and store-buffer encodings it relies on, recomputed from the raw
containers on every call.  :func:`options` likewise rebuilds every branch
option the sleep levels see from ``enabled_tids``/``peek``.
``tests/test_state_key_cache.py`` asserts that the explorer's cached
values equal these at every node.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.ir import instructions as ins
from repro.sched.explorer import (
    _EMPTY,
    _GLOBAL_FP,
    _LOCAL_FP,
    Footprint,
    Option,
    _flush_footprint,
)
from repro.vm.interp import VM


def memory_fingerprint(memory) -> Tuple:
    """Canonical hashable encoding of a ``SharedMemory``'s state."""
    return (tuple(sorted(memory.cells.items())),
            tuple(memory._region_bases), memory._bump)


def buffer_fingerprint(model) -> Tuple:
    """Canonical hashable encoding of all buffered stores of a model."""
    if model.name == "tso":
        return tuple(sorted((tid, tuple(buf))
                            for tid, buf in model._buffers.items() if buf))
    if model.name == "pso":
        return tuple(sorted(
            (tid, tuple(sorted((addr, tuple(entries))
                               for addr, entries in bufs.items()
                               if entries)))
            for tid, bufs in model._buffers.items()
            if any(bufs.values())))
    return ()


def state_key(vm: VM) -> Tuple:
    """Canonical hashable encoding of the full execution state."""
    threads = tuple(
        (tid, thread.status.value, thread.join_target, thread.result,
         tuple((frame.fn.name, frame.ip, tuple(sorted(frame.regs.items())))
               for frame in thread.frames))
        for tid, thread in sorted(vm.threads.items()))
    return (threads, vm._next_tid, memory_fingerprint(vm.memory),
            buffer_fingerprint(vm.model))


def _step_footprint(vm: VM, tid: int, instr) -> Footprint:
    """The shared-state footprint of thread *tid*'s next step (*instr*,
    None for a blocked join's completion)."""
    if instr is None:
        return _GLOBAL_FP
    thread = vm.threads[tid]
    frame = thread.top
    cls = instr.__class__
    if cls is ins.Load:
        addr = vm._value(instr.addr, frame)
        return (False, frozenset((addr,)), _EMPTY)
    if cls is ins.Store:
        if vm.model.name == "sc":
            addr = vm._value(instr.addr, frame)
            return (False, _EMPTY, frozenset((addr,)))
        return _LOCAL_FP
    if cls is ins.Ret:
        if frame.op_index is not None:
            return _GLOBAL_FP
        if len(thread.frames) == 1:
            return (False, _EMPTY, frozenset((("done", tid),)))
        return _LOCAL_FP
    if cls is ins.Call:
        return _GLOBAL_FP if instr.fn in vm.operations else _LOCAL_FP
    if cls is ins.Join:
        target = vm._value(instr.tid, frame)
        if target not in vm.threads:
            return _GLOBAL_FP
        return (False, frozenset((("done", target),)),
                frozenset(vm.model.pending_addrs(target)))
    return _GLOBAL_FP


def _waits(vm: VM, tid: int, instr) -> bool:
    """True iff *instr* is a join on a known, unfinished thread."""
    if instr.__class__ is not ins.Join:
        return False
    target = vm.threads.get(vm._value(instr.tid, vm.threads[tid].top))
    return target is not None and not target.finished


def options(vm: VM) -> List[Option]:
    """Branch options at the sleep levels: enabled tids ascending, then
    flushes.  A thread whose next step is a join on an unfinished thread
    has none: the step would only block it."""
    opts: List[Option] = []
    for tid in vm.enabled_tids():
        instr = vm.peek(tid)
        if instr is not None and _waits(vm, tid, instr):
            continue
        ident = ("step", tid)
        opts.append((ident, ident, _step_footprint(vm, tid, instr)))
    model = vm.model
    if model.name == "pso":
        for tid in vm.tids_with_pending():
            for addr in model.pending_addrs(tid):
                ident = ("flush", tid, addr)
                opts.append((ident, ident, _flush_footprint(addr)))
    else:
        for tid in vm.tids_with_pending():
            head = model.head_addr(tid)
            opts.append((("flush", tid, None), ("flush", tid, head),
                         _flush_footprint(head)))
    return opts

"""Uncached state key and branch options: the reference for the
explorer's cached ones.

:func:`state_key` is the explorer's canonical state encoding as it was
before its components were cached next to the state they describe, and
:func:`memory_fingerprint` / :func:`buffer_fingerprint` are the memory
and store-buffer encodings it relies on, recomputed from the raw
containers on every call.  :func:`options` likewise rebuilds every branch
option from ``enabled_tids``/``peek``.  ``tests/test_state_key_cache.py``
asserts that the explorer's cached values equal these at every node.
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
    """The shared-state footprint of thread *tid*'s next step."""
    if instr is None:
        return _GLOBAL_FP
    cls = instr.__class__
    if cls is ins.Load:
        addr = vm._value(instr.addr, vm.threads[tid].top)
        return (False, frozenset((addr,)), _EMPTY)
    if cls is ins.Store:
        if vm.model.name == "sc":
            addr = vm._value(instr.addr, vm.threads[tid].top)
            return (False, _EMPTY, frozenset((addr,)))
        return _LOCAL_FP
    return _GLOBAL_FP


def options(vm: VM) -> List[Option]:
    """Branch options: enabled tids ascending, then flushes."""
    opts: List[Option] = []
    for tid in vm.enabled_tids():
        ident = ("step", tid)
        opts.append((ident, ident,
                     _step_footprint(vm, tid, vm.peek(tid))))
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

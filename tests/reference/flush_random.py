"""The flush-delaying scheduler loop as it was before it was inlined: the
reference for :class:`repro.sched.flush_random.FlushDelayScheduler`.

One decision goes through ``enabled_tids``/``tids_with_pending``,
``rng.randrange`` and the ``_step``/``_flush_step``/``_run_local``
helpers.  ``tests/test_flush_random_equivalence.py`` asserts that the
production loop makes the same RNG calls, the same schedule and the same
trace as this one.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.sched.base import Scheduler
from repro.sched.flush_random import MAX_LOCAL_RUN
from repro.vm.interp import VM


class ReferenceFlushDelayScheduler(Scheduler):
    """Random demonic scheduler with delayed flushing (reference loop)."""

    def __init__(self, seed: int = 0, flush_prob: float = 0.5,
                 por: bool = True, trace=None) -> None:
        if not 0.0 <= flush_prob <= 1.0:
            raise ValueError("flush_prob must be in [0, 1]")
        self.rng = random.Random(seed)
        self.flush_prob = flush_prob
        self.por = por
        self.trace = trace

    def run(self, vm: VM) -> None:
        rng = self.rng
        while True:
            enabled = vm.enabled_tids()
            # Flushing is a memory-system action: any thread's buffers may
            # flush, including threads blocked in join or already finished
            # (otherwise a blocked producer could starve a spinning
            # consumer forever).
            pending = vm.tids_with_pending()
            if not enabled:
                if pending:
                    self._flush_step(vm, pending[rng.randrange(len(pending))])
                    continue
                self._check_deadlock(vm)
                self._finish(vm)
                return
            if pending and rng.random() < self.flush_prob:
                self._flush_step(vm, pending[rng.randrange(len(pending))])
                continue
            tid = enabled[rng.randrange(len(enabled))] \
                if len(enabled) > 1 else enabled[0]
            self._step(vm, tid)
            if self.por:
                self._run_local(vm, tid)

    def _step(self, vm: VM, tid: int) -> None:
        if self.trace is not None:
            self.trace.append(("step", tid))
        vm.step(tid)

    def _flush_step(self, vm: VM, tid: int) -> None:
        addrs = vm.model.pending_addrs(tid)
        if not addrs:
            return
        # PSO: pick a random per-variable buffer; TSO: pending_addrs lists
        # the FIFO queue, whose head is the only flushable entry.
        if vm.model.name == "pso":
            addr: Optional[int] = addrs[self.rng.randrange(len(addrs))]
        else:
            addr = None
        if vm.flush_one(tid, addr) and self.trace is not None:
            self.trace.append(("flush", tid, addr))

    def _run_local(self, vm: VM, tid: int) -> None:
        # The burst is budget-counted in underlying instructions on both
        # VM backends (the compiled VM executes it as superinstructions),
        # so schedules — and therefore RNG draws — are backend-independent.
        executed = vm.run_local(tid, MAX_LOCAL_RUN)
        if executed and self.trace is not None:
            self.trace.extend(("step", tid) for _ in range(executed))

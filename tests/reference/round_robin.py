"""A deterministic round-robin scheduler (testing / baseline).

Threads step in tid order, ``quantum`` instructions at a time; buffers are
flushed eagerly whenever a thread's quantum ends.  Under this scheduler a
data-race-free program behaves sequentially-consistently, which makes it a
useful control when testing the algorithms themselves.
"""

from __future__ import annotations

from repro.sched.base import Scheduler
from repro.vm.interp import VM


class RoundRobinScheduler(Scheduler):
    """Step threads in tid order with eager flushing."""

    def __init__(self, quantum: int = 1) -> None:
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        self.quantum = quantum

    def run(self, vm: VM) -> None:
        while True:
            enabled = vm.enabled_tids()
            if not enabled:
                self._check_deadlock(vm)
                self._finish(vm)
                return
            for tid in sorted(enabled):
                for _ in range(self.quantum):
                    if tid not in vm.enabled_tids():
                        break
                    vm.step(tid)
                vm.model.drain(tid)

"""The flush-delaying demonic scheduler (paper §5.2).

At each scheduling point:

* if some thread has buffered stores (running, blocked or finished), then
  with probability ``flush_prob`` — or always, when no thread is enabled —
  the scheduler flushes one store of a uniformly chosen pending thread: the
  head of its FIFO under TSO, the head of a uniformly chosen per-address
  buffer under PSO;
* otherwise a uniformly chosen enabled thread executes its next
  instruction;
* partial-order reduction: once stepped, a thread keeps running while its
  next instruction only touches thread-local state (registers / control
  flow), since such steps commute with every other thread.

Low ``flush_prob`` keeps stores buffered for long stretches, exposing
relaxed-memory violations; a value near 1.0 makes the run effectively SC.
The paper's tuned defaults are ~0.1 for TSO and ~0.5 for PSO.
"""

from __future__ import annotations

import random

from ..vm.interp import VM
from .base import Scheduler

#: Cap on consecutive local steps, so register-only loops cannot starve
#: the scheduler (real programs always reach a shared access or branch out).
MAX_LOCAL_RUN = 64


class FlushDelayScheduler(Scheduler):
    """Random demonic scheduler with delayed flushing.

    Args:
        seed: RNG seed (every execution is reproducible from its seed).
        flush_prob: probability of flushing (vs stepping) at a decision
            point where some thread has buffered stores.
        por: enable the local-access partial-order reduction.
        trace: optional list collecting ("step", tid) /
            ("flush", tid, addr) events for deterministic replay (see
            :mod:`repro.sched.replay`).
    """

    def __init__(self, seed: int = 0, flush_prob: float = 0.5,
                 por: bool = True, trace=None) -> None:
        if not 0.0 <= flush_prob <= 1.0:
            raise ValueError("flush_prob must be in [0, 1]")
        self.rng = random.Random(seed)
        self.flush_prob = flush_prob
        self.por = por
        self.trace = trace

    def run(self, vm: VM) -> None:
        # One decision costs the vm.step/vm.run_local calls, the chosen
        # instruction and one RNG draw.  Indices are drawn exactly as
        # ``Random.randrange(n)`` draws them (``_randbelow``: getrandbits
        # of n's bit length, redrawn while out of range — also for
        # n == 1), so seeds give the same schedules as a randrange loop.
        rng = self.rng
        random_ = rng.random
        getrandbits = rng.getrandbits
        flush_prob = self.flush_prob
        por = self.por
        trace = self.trace
        step = vm.step
        run_local = vm.run_local
        budget = MAX_LOCAL_RUN
        model = vm.model
        flush_one = model.flush_one
        pending_addrs = model.pending_addrs if model.name == "pso" else None
        # Mutated in place by the VM and the model for the whole run;
        # only VM.restore rebinds them, and a random run never restores.
        runnable = vm._runnable
        blocked_join = vm._blocked_join
        # Flushing is a memory-system action: any thread's buffers may
        # flush, including threads blocked in join or already finished
        # (otherwise a blocked producer could starve a spinning consumer
        # forever).  The buffer dict's keys are the pending tids.
        pending = model._buffers
        while True:
            enabled = vm.enabled_tids() if blocked_join else runnable
            if pending:
                if not enabled or random_() < flush_prob:
                    n = len(pending)
                    k = n.bit_length()
                    r = getrandbits(k)
                    while r >= n:
                        r = getrandbits(k)
                    if n > 1:
                        tid = sorted(pending)[r]
                    else:
                        (tid,) = pending
                    addr = None
                    if pending_addrs is not None:
                        # PSO: the head of a random per-address buffer.
                        # TSO needs no address: a pending thread's FIFO
                        # always has a head.
                        addrs = pending_addrs(tid)
                        if not addrs:  # the n == 0 draw would never end
                            continue
                        n = len(addrs)
                        k = n.bit_length()
                        r = getrandbits(k)
                        while r >= n:
                            r = getrandbits(k)
                        addr = addrs[r]
                    if flush_one(tid, addr) and trace is not None:
                        trace.append(("flush", tid, addr))
                    continue
            elif not enabled:
                self._check_deadlock(vm)
                self._finish(vm)
                return
            n = len(enabled)
            if n > 1:
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                tid = sorted(enabled)[r]
            else:
                (tid,) = enabled
            if trace is not None:
                trace.append(("step", tid))
            step(tid)
            if por:
                # The burst is budget-counted in underlying instructions,
                # so superinstruction fusion never changes a schedule.
                executed = run_local(tid, budget)
                if executed and trace is not None:
                    trace.extend([("step", tid)] * executed)

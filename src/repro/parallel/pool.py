"""The :class:`ExecutionPool` abstraction and its factory.

A pool runs *rounds* of independent executions — the inner loop of the
paper's Algorithm 1 — against a broadcast snapshot of the module under
repair.  Two implementations exist:

* :class:`~repro.parallel.serial.SerialPool` — runs jobs in-process, in
  order.  Zero dependencies, zero IPC; the default.
* :class:`~repro.parallel.process.ProcessPool` — forks worker processes
  and deals each one an interleaved share of every round.

Both yield :class:`~repro.parallel.summary.ExecutionSummary` records in
strict execution-index order, which is the determinism contract: the
engine folds summaries in index order, so ``SynthesisResult`` (outcome,
example violations, witness caps, clause order, chosen repair) does not
depend on worker scheduling.  A property test asserts serial ≡ parallel.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from ..ir.module import Module
from ..spec.specifications import Specification
from ..vm.interp import DEFAULT_MAX_STEPS
from .summary import ExecutionSummary

#: One execution job: ``(index, entry_function, scheduler_seed)``.
Job = Tuple[int, str, int]


class ExecutionPool:
    """Runs rounds of executions against a broadcast module snapshot.

    Lifecycle::

        pool.broadcast(module, spec, operations)   # before each round /
                                                   # after each enforce()
        for summary in pool.run(jobs):             # index-ordered
            ...
        pool.close()

    ``run`` returns a generator; closing it early (e.g. ``break``) skips
    the summaries not yet taken.
    """

    def broadcast(self, module: Module, spec: Specification,
                  operations: Sequence[str] = ()) -> None:
        """Publish the (possibly repaired) module and spec to workers."""
        raise NotImplementedError

    def run(self, jobs: Iterable[Job]) -> Iterator[ExecutionSummary]:
        """Execute *jobs*, yielding summaries in execution-index order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "ExecutionPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def resolve_workers(workers: Optional[int]) -> int:
    """Map the ``workers`` knob to a process count.

    ``None`` → 0 (serial backend); ``0`` → one worker per CPU;
    ``n >= 1`` → exactly n workers.
    """
    if workers is None:
        return 0
    if workers < 0:
        raise ValueError("workers must be None, 0, or positive")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def make_pool(workers: Optional[int], model_name: str,
              flush_prob: float, por: bool = True,
              max_steps: int = DEFAULT_MAX_STEPS) -> ExecutionPool:
    """Build the execution backend selected by *workers*.

    ``None`` selects :class:`SerialPool`; ``0`` selects a
    :class:`ProcessPool` sized to ``os.cpu_count()``; a positive integer
    selects a :class:`ProcessPool` with exactly that many workers.  Where
    ``os.fork`` does not exist, every setting selects :class:`SerialPool`,
    which returns the same results.
    """
    from .process import ProcessPool
    from .serial import SerialPool

    count = resolve_workers(workers)
    if count == 0 or not hasattr(os, "fork"):
        return SerialPool(model_name, flush_prob, por=por,
                          max_steps=max_steps)
    return ProcessPool(count, model_name, flush_prob, por=por,
                       max_steps=max_steps)

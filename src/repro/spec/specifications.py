"""Top-level specifications the synthesis engine checks executions against.

Three specification strengths, matching the paper's evaluation dimensions:

* :class:`MemorySafetySpec` — the execution must not crash (out-of-bounds,
  freed/NULL access, failed assertion).  Always on; the other specs layer
  on top of it, exactly as in the paper ("memory safety checking is always
  on, hence Linearizability and Sequential Consistency columns include
  fences inferred due to memory safety violations").
* :class:`SequentialConsistencySpec` — operation-level SC of the history.
* :class:`LinearizabilitySpec` — linearizability of the history.

Plus :class:`GarbageFreeSpec`, the "no garbage tasks returned" property the
paper uses for the idempotent work-stealing queues (every returned task
must have been put, and returned at most ``multiplicity`` times).
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from ..vm.driver import ExecutionResult
from .checker import is_linearizable, is_sequentially_consistent
from .sequential import EMPTY, SequentialSpec


class Specification:
    """Base class: maps an execution result to a violation message."""

    name = "spec"

    def check(self, result: ExecutionResult) -> Optional[str]:
        """Return a violation description, or None if the execution is OK.

        Executions that were cut off (timeout/deadlock) are never judged
        violating here; the driver filters them out.
        """
        raise NotImplementedError

    def _crash(self, result: ExecutionResult) -> Optional[str]:
        if result.crashed:
            return "%s: %s" % (result.status.value, result.error)
        return None


class MemorySafetySpec(Specification):
    """Crash-freedom only."""

    name = "memory_safety"

    def check(self, result: ExecutionResult) -> Optional[str]:
        return self._crash(result)


class SequentialConsistencySpec(Specification):
    """Memory safety + operation-level sequential consistency."""

    name = "sequential_consistency"

    def __init__(self, spec: SequentialSpec) -> None:
        self.spec = spec

    def check(self, result: ExecutionResult) -> Optional[str]:
        crash = self._crash(result)
        if crash is not None:
            return crash
        if not is_sequentially_consistent(result.history, self.spec):
            return ("history not sequentially consistent: %r"
                    % (result.history.complete_ops(),))
        return None


class LinearizabilitySpec(Specification):
    """Memory safety + linearizability."""

    name = "linearizability"

    def __init__(self, spec: SequentialSpec) -> None:
        self.spec = spec

    def check(self, result: ExecutionResult) -> Optional[str]:
        crash = self._crash(result)
        if crash is not None:
            return crash
        if not is_linearizable(result.history, self.spec):
            return ("history not linearizable: %r"
                    % (result.history.complete_ops(),))
        return None


class GarbageFreeSpec(Specification):
    """No garbage tasks: every non-EMPTY take/steal result was previously
    put, and no task is returned more often than it was put times
    ``multiplicity`` (1 for exact queues; idempotent queues allow
    duplicates, i.e. unbounded multiplicity, but never invented values).

    The check is causal, not serial, so it needs no search: a returned
    task must have been put by an operation that was *invoked before the
    get returned* (a get overlapping its put may legitimately see the
    value).
    """

    name = "garbage_free"

    def __init__(self, multiplicity: Optional[int] = 1) -> None:
        self.multiplicity = multiplicity

    def check(self, result: ExecutionResult) -> Optional[str]:
        crash = self._crash(result)
        if crash is not None:
            return crash
        ops = result.history.complete_ops()
        puts = [op for op in ops if op.name == "put"]
        returned = Counter()
        for op in sorted(ops, key=lambda o: o.ret_seq):
            if op.name not in ("take", "steal") or op.result == EMPTY:
                continue
            value = op.result
            eligible = sum(1 for put in puts
                           if put.args[0] == value
                           and put.call_seq < op.ret_seq)
            if eligible == 0:
                return ("garbage task %d returned by %s (never put)"
                        % (value, op.name))
            returned[value] += 1
            if (self.multiplicity is not None
                    and returned[value] > eligible * self.multiplicity):
                return ("task %d returned %d times but put at most %d "
                        "times" % (value, returned[value], eligible))
        return None

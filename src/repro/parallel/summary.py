"""Compact, picklable per-execution records.

Worker processes cannot (cheaply) ship live VM objects back to the
engine, so each execution is condensed into an :class:`ExecutionSummary`:
plain tuples and strings only, small enough that a round of hundreds of
executions costs little IPC.  The summary carries what the merge step
and the Recorder read — status, the spec verdict (checked in the worker,
so the history never travels), the ``avoid(p)`` predicate tuples, the
metric counters, and the (entry, seed) pair that makes the execution
reproducible as a :class:`~repro.sched.replay.Witness`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..ir.instructions import FenceKind
from ..memory.predicates import OrderingPredicate
from ..vm.driver import ExecutionResult, ExecutionStatus

#: ``(store_label, access_label, fence_kind_value)``
PredicateTuple = Tuple[int, int, str]

_UNUSABLE = (ExecutionStatus.TIMEOUT.value, ExecutionStatus.DEADLOCK.value)


#: Per-execution metric payload: ``(flushes, max_buffer_depth)``.
MetricsTuple = Tuple[int, int]


class ExecutionSummary:
    """One execution, flattened for IPC and deterministic merging.

    ``index`` is the execution's global position in its round; the merge
    step folds summaries in increasing index order, which is what makes
    the parallel backend byte-compatible with the serial one.

    ``metrics`` carries the deterministic per-execution observability
    counters (a :data:`MetricsTuple`); ``worker`` tags which backend
    worker ran the job.  The worker tag is transport metadata — it
    differs between backends by construction, so it is excluded from
    equality and never feeds the deterministic metric aggregates.
    """

    __slots__ = ("index", "entry", "seed", "status", "steps",
                 "predicates", "violation", "metrics", "worker")

    #: Slots compared by ``__eq__`` — everything except ``worker``.
    _PAYLOAD_SLOTS = ("index", "entry", "seed", "status", "steps",
                      "predicates", "violation", "metrics")

    def __init__(self, index: int, entry: str, seed: int, status: str,
                 steps: int, predicates: Tuple[PredicateTuple, ...],
                 violation: Optional[str],
                 metrics: MetricsTuple = (0, 0),
                 worker: Optional[str] = None) -> None:
        self.index = index
        self.entry = entry
        self.seed = seed
        self.status = status            # ExecutionStatus value string
        self.steps = steps
        self.predicates = predicates
        self.violation = violation      # spec.check message, None if OK
        self.metrics = metrics
        self.worker = worker

    # -- pickling (needed explicitly because of __slots__) -------------

    def __reduce__(self):
        return (ExecutionSummary,
                (self.index, self.entry, self.seed, self.status,
                 self.steps, self.predicates, self.violation, self.metrics,
                 self.worker))

    # -- derived views -------------------------------------------------

    @property
    def usable(self) -> bool:
        """True if the run is meaningful for checking (not cut off)."""
        return self.status not in _UNUSABLE

    def predicate_objects(self) -> List[OrderingPredicate]:
        """Rebuild the ``avoid(p)`` disjunction, in recorded order."""
        return [OrderingPredicate(l, k, FenceKind(kind))
                for (l, k, kind) in self.predicates]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutionSummary):
            return NotImplemented
        return all(getattr(self, slot) == getattr(other, slot)
                   for slot in ExecutionSummary._PAYLOAD_SLOTS)

    def __hash__(self) -> int:
        return hash((self.index, self.entry, self.seed, self.status))

    def __repr__(self) -> str:
        return "<ExecutionSummary #%d %s/%d %s%s>" % (
            self.index, self.entry, self.seed, self.status,
            " VIOLATION" if self.violation else "")


def summarize_execution(index: int, entry: str, seed: int,
                        result: ExecutionResult,
                        violation: Optional[str],
                        worker: Optional[str] = None) -> ExecutionSummary:
    """Flatten one :class:`ExecutionResult` into a summary record."""
    predicates = tuple((p.store_label, p.access_label, p.kind.value)
                       for p in result.predicates)
    return ExecutionSummary(index, entry, seed, result.status.value,
                            result.steps, predicates, violation,
                            metrics=(result.flushes,
                                     result.max_buffer_depth),
                            worker=worker)

"""Execution histories: call/return events of declared operations.

Specification checking (linearizability, operation-level sequential
consistency) works on the *history* of an execution — the sequence of
operation invocations and responses, with their global ordering.  The VM
appends events here whenever a declared operation function is entered or
left.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


class Operation:
    """One completed operation in a history.

    ``call_seq`` and ``ret_seq`` are global step counters: operation A
    *happens before* B (real-time) iff ``A.ret_seq < B.call_seq``.
    """

    __slots__ = ("tid", "name", "args", "result", "call_seq", "ret_seq")

    def __init__(self, tid: int, name: str, args: Tuple[int, ...],
                 call_seq: int) -> None:
        self.tid = tid
        self.name = name
        self.args = args
        self.result: Optional[int] = None
        self.call_seq = call_seq
        self.ret_seq: Optional[int] = None

    @property
    def complete(self) -> bool:
        return self.ret_seq is not None

    def precedes(self, other: "Operation") -> bool:
        """Real-time precedence: this op returned before *other* was called."""
        return self.ret_seq is not None and self.ret_seq < other.call_seq

    def __repr__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        result = "?" if self.result is None else str(self.result)
        return "t%d:%s(%s)=%s[%s,%s]" % (
            self.tid, self.name, args, result, self.call_seq, self.ret_seq)


class History:
    """The operations observed in one execution, in invocation order."""

    def __init__(self) -> None:
        self.operations: List[Operation] = []

    def begin(self, tid: int, name: str, args: Sequence[int],
              seq: int) -> Operation:
        op = Operation(tid, name, tuple(args), seq)
        self.operations.append(op)
        return op

    def copy(self) -> "History":
        """Copy for VM snapshots.

        Completed operations are never mutated again, so the copy shares
        them; only in-flight ones (which a return completes in place,
        through the frame's ``op_index``) are cloned.
        """
        history = History()
        operations = history.operations
        for op in self.operations:
            if op.ret_seq is None:
                clone = Operation(op.tid, op.name, op.args, op.call_seq)
                clone.result = op.result
                op = clone
            operations.append(op)
        return history

    def complete_ops(self) -> List[Operation]:
        return [op for op in self.operations if op.complete]

    def by_thread(self) -> dict:
        """Operations grouped per thread, in program order."""
        threads: dict = {}
        for op in self.operations:
            threads.setdefault(op.tid, []).append(op)
        return threads

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)

    def __repr__(self) -> str:
        return "<History %s>" % (self.operations,)

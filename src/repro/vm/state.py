"""Thread and frame state for the interpreter.

Mirrors the paper's ``ThreadStacks`` extension of lli: every thread owns a
list of execution contexts (frames); a thread is *enabled* while its frame
list is non-empty, and ``join`` completes only once the target's list is
empty (and, per the JOIN rule, its store buffers are drained).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from ..ir.function import Function
from .events import Operation


class ThreadStatus(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED_JOIN = "blocked_join"
    FINISHED = "finished"


class Frame:
    """One activation record: function, registers, instruction pointer."""

    __slots__ = ("fn", "regs", "ip", "ret_dst", "op_record", "handlers")

    def __init__(self, fn: Function, ret_dst=None,
                 op_record: Optional[Operation] = None) -> None:
        self.fn = fn
        self.regs: Dict[str, int] = {}
        self.ip = 0                     # index into fn.body
        self.ret_dst = ret_dst          # register in the caller's frame
        self.op_record = op_record      # history record to complete on return
        self.handlers = None            # per-function dispatch cache (VM)

    def clone(self, opmap: Optional[Dict[int, Operation]] = None) -> "Frame":
        """Deep-enough copy for VM snapshots: registers are copied, the
        immutable function/dispatch cache is shared, and the in-flight
        operation record is remapped through *opmap* (id(old) → clone) so
        the copy completes its own history's record, not the original's."""
        frame = Frame.__new__(Frame)
        frame.fn = self.fn
        frame.regs = dict(self.regs)
        frame.ip = self.ip
        frame.ret_dst = self.ret_dst
        record = self.op_record
        if record is not None and opmap is not None:
            record = opmap[id(record)]
        frame.op_record = record
        frame.handlers = self.handlers
        return frame

    def __repr__(self) -> str:
        return "<Frame %s ip=%d>" % (self.fn.name, self.ip)


class Thread:
    """A VM thread: a stack of frames plus scheduling status.

    ``key`` and ``step_option`` cache the thread's component of the
    explorer's canonical state key and its "step this thread" branch
    option (``None`` until computed).  Both depend only on this thread's
    own state.  The VM never reads or clears them; the explorer clears
    them whenever it runs the thread, and snapshots carry them along
    with the state they describe.
    """

    __slots__ = ("tid", "frames", "status", "join_target", "result",
                 "key", "step_option")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.frames: List[Frame] = []
        self.status = ThreadStatus.RUNNABLE
        self.join_target: Optional[int] = None
        self.result: Optional[int] = None
        self.key: Optional[tuple] = None
        self.step_option: Optional[tuple] = None

    def clone(self, opmap: Optional[Dict[int, Operation]] = None) -> "Thread":
        """Deep copy of the thread's execution state (VM snapshots)."""
        thread = Thread.__new__(Thread)
        thread.tid = self.tid
        thread.frames = [frame.clone(opmap) for frame in self.frames]
        thread.status = self.status
        thread.join_target = self.join_target
        thread.result = self.result
        thread.key = self.key
        thread.step_option = self.step_option
        return thread

    @property
    def top(self) -> Frame:
        return self.frames[-1]

    @property
    def finished(self) -> bool:
        return self.status is ThreadStatus.FINISHED

    def __repr__(self) -> str:
        return "<Thread %d %s depth=%d>" % (
            self.tid, self.status.value, len(self.frames))

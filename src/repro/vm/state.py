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


class ThreadStatus(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED_JOIN = "blocked_join"
    FINISHED = "finished"


class Frame:
    """One activation record: function, registers, instruction pointer."""

    __slots__ = ("fn", "regs", "ip", "ret_dst", "op_index", "code")

    def __init__(self, fn: Function, ret_dst=None,
                 op_index: Optional[int] = None) -> None:
        self.fn = fn
        self.regs: Dict[str, int] = {}
        self.ip = 0                     # index into fn.body
        self.ret_dst = ret_dst          # register in the caller's frame
        self.op_index = op_index        # history index to complete on return
        self.code = None                # the function's CompiledCode

    def clone(self) -> "Frame":
        """Copy for a copy-on-write thread: registers are copied, the
        immutable function and its compiled code are shared.  ``op_index``
        is an index into the VM's current history, so it needs no
        remapping."""
        frame = Frame.__new__(Frame)
        frame.fn = self.fn
        frame.regs = self.regs.copy()
        frame.ip = self.ip
        frame.ret_dst = self.ret_dst
        frame.op_index = self.op_index
        frame.code = self.code
        return frame

    def __repr__(self) -> str:
        return "<Frame %s ip=%d>" % (self.fn.name, self.ip)


class Thread:
    """A VM thread: a stack of frames plus scheduling status.

    Threads are copy-on-write between the VM and its snapshots.  ``epoch``
    is the VM generation the thread was created or cloned in: the VM
    owns the thread, and may mutate it, only while ``epoch`` equals its
    current generation.  ``VM.snapshot`` bumps the generation after
    capturing the thread table, so every live thread becomes shared, as
    is every thread a restore adopts; the VM clones a stale thread
    (:meth:`clone`) before the first step that mutates it.

    ``key`` and ``step_option`` cache the thread's component of the
    explorer's canonical state key and its "step this thread" branch
    option (``None`` until computed; for a thread at a join, an option
    whose footprint is ``None``, since the join's footprint depends on
    its target and the explorer rebuilds it at every visit).  The key
    component is a small int: the id the current search interned the
    thread's full state tuple as
    (``repro.sched.explorer._state_key``), meaningful only inside that
    search, whose VM and threads are its own.  ``access`` caches what
    the thread's remaining code may write and touch, read off the
    search's static may-access tables for its frames
    (``repro.sched.explorer._thread_access``).  All three depend only
    on this thread's own state, so filling them in on a shared thread
    is safe.
    The VM never reads or clears them; the explorer clears them on the
    thread the VM owns after running it, and clones carry them along
    with the state they describe.
    """

    __slots__ = ("tid", "frames", "status", "join_target", "result",
                 "key", "step_option", "access", "epoch")

    def __init__(self, tid: int, epoch: int) -> None:
        self.tid = tid
        self.frames: List[Frame] = []
        self.status = ThreadStatus.RUNNABLE
        self.join_target: Optional[int] = None
        self.result: Optional[int] = None
        self.key: Optional[int] = None
        self.step_option: Optional[tuple] = None
        self.access: Optional[tuple] = None
        self.epoch = epoch

    def clone(self, epoch: int) -> "Thread":
        """Copy of the thread's execution state, owned by generation
        *epoch* (frames and registers copied)."""
        thread = Thread.__new__(Thread)
        thread.tid = self.tid
        thread.frames = [frame.clone() for frame in self.frames]
        thread.status = self.status
        thread.join_target = self.join_target
        thread.result = self.result
        thread.key = self.key
        thread.step_option = self.step_option
        thread.access = self.access
        thread.epoch = epoch
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

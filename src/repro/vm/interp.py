"""The VM base class — the reproduction's version of the extended lli.

One :class:`VM` instance executes one program run.  The VM performs the
*thread* steps; the *memory-system* steps (flushes) are driven externally
by a scheduler, which also chooses which thread steps next.  This mirrors
the paper's architecture where the scheduler plug-in controls both thread
interleaving and flushing.

:class:`VM` holds the execution state (threads, shared memory, history,
copy-on-write snapshots, flushes and joins) and documents the stepping
interface, :meth:`VM.step` and :meth:`VM.run_local`.  The one backend
that implements it is :class:`repro.vm.compile.CompiledVM`, built by
:func:`repro.vm.compile.make_vm`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..ir import instructions as ins
from ..ir.module import Module
from ..ir.operands import Const, Reg, Sym
from ..memory.models import StoreBufferModel
from ..memory.predicates import PredicateSink
from .errors import InterpreterError
from .events import History
from .heap import SharedMemory
from .state import Frame, Thread, ThreadStatus

#: Default per-execution step budget.
DEFAULT_MAX_STEPS = 200_000

#: Instruction classes that only touch thread-local state (registers and
#: control flow).  They commute with every other thread's actions, so the
#: schedulers' partial-order reduction may run them back to back without
#: offering the decision point to other threads.  The exploration variant
#: additionally treats ``assert`` as local (its violation surfaces on
#: every interleaving once its operands are fixed); the random scheduler
#: keeps asserts as scheduling points, matching its historical behaviour.
#: At its sleep levels the explorer also runs calls and returns eagerly
#: (``LOCAL_OPS_CALL``): with no recorded operations a call or an inner
#: return touches only its own thread's frames, and a final return
#: writes only the thread's done cell, which only a join on it reads.
#: Under a buffering model (TSO/PSO) it runs stores eagerly too
#: (``LOCAL_OPS_STORE``): a store only appends to the issuing thread's
#: own FIFO buffer, so it commutes with every other thread's action and
#: with the flush of its buffer's head (see DESIGN, "Eager thread-local
#: steps").
LOCAL_OPS = frozenset((
    ins.ConstInstr, ins.Mov, ins.BinOp, ins.UnOp,
    ins.Br, ins.Cbr, ins.Nop, ins.SelfId, ins.AddrOf,
))
LOCAL_OPS_ASSERT = LOCAL_OPS | frozenset((ins.Assert,))
LOCAL_OPS_CALL = LOCAL_OPS_ASSERT | frozenset((ins.Call, ins.Ret))
LOCAL_OPS_STORE = LOCAL_OPS_CALL | frozenset((ins.Store,))


class VMSnapshot:
    """One captured VM execution state (see :meth:`VM.snapshot`).

    Opaque to callers: hand it back to :meth:`VM.restore` on the *same*
    VM instance.  A snapshot shares its thread objects and shared-memory
    containers with the VM copy-on-write (see :meth:`VM.snapshot`),
    copies the small mutable rest (store buffers, the history list and
    its in-flight records, counters, the runnable set and blocked-join
    map), and shares everything immutable (module, functions, compiled
    code, completed history records, the sorted enabled list).  A VM
    that records no operations never writes its history, so its
    snapshots share the history too.
    """

    __slots__ = ("threads", "next_tid", "steps", "seq", "flushes",
                 "history", "memory", "model", "runnable", "blocked_join",
                 "enabled")


class VM:
    """A single execution of a DIR module under a memory model.

    Args:
        module: the program.
        model: a fresh (or reset) memory model instance.
        entry: name of the function the main thread starts in.
        entry_args: integer arguments for the entry function.
        operations: names of functions whose calls/returns are recorded in
            the execution history for specification checking.
        sink: optional predicate sink (instrumented semantics).
        max_steps: step budget to cut off livelocked schedules.
    """

    def __init__(self, module: Module, model: StoreBufferModel,
                 entry: str = "main", entry_args: Sequence[int] = (),
                 operations: Iterable[str] = (),
                 sink: Optional[PredicateSink] = None,
                 max_steps: int = DEFAULT_MAX_STEPS,
                 coverage: Optional[set] = None) -> None:
        self.module = module
        self.model = model
        self.memory = SharedMemory(module)
        self.operations = frozenset(operations)
        self.history = History()
        self.max_steps = max_steps
        self.steps = 0
        self.seq = 0
        #: Stores committed to shared memory this execution (every flush
        #: lands in ``_commit``, including SC's immediate writes) — one of
        #: the per-execution observability counters.
        self.flushes = 0
        #: Optional set collecting the labels of executed instructions
        #: (client-coverage measurement, paper section 6.4).
        self.coverage = coverage

        model.reset()
        model.attach(self._commit, sink)

        self.threads: Dict[int, Thread] = {}
        #: Copy-on-write generation: a thread whose ``epoch`` differs is
        #: shared with a snapshot and is cloned before its next mutation
        #: (``_own``).  Bumped by every snapshot, after it captures the
        #: thread table.
        self._generation = 0
        self._next_tid = 0
        #: Incrementally maintained scheduling sets: tids whose status is
        #: RUNNABLE, and blocked-join tid → join-target tid.  Decision
        #: points hit ``enabled_tids`` constantly; these avoid rescanning
        #: every thread's status per call.
        self._runnable: set = set()
        self._blocked_join: Dict[int, int] = {}
        #: ``enabled_tids``'s last answer, or None once either set (or a
        #: join target's status) may have changed: every site that
        #: mutates them clears it.
        self._enabled: Optional[List[int]] = None
        self._spawn(entry, [int(a) for a in entry_args])

    # ------------------------------------------------------------------
    # Thread management

    def _spawn(self, fn_name: str, args: List[int]) -> int:
        fn = self.module.function(fn_name)
        if len(args) != len(fn.params):
            raise InterpreterError(
                "spawn of %s with %d args (expects %d)"
                % (fn_name, len(args), len(fn.params)))
        tid = self._next_tid
        self._next_tid += 1
        thread = Thread(tid, self._generation)
        frame = Frame(fn)
        for param, value in zip(fn.params, args):
            frame.regs[param] = value
        thread.frames.append(frame)
        self.threads[tid] = thread
        self._runnable.add(tid)
        self._enabled = None
        return tid

    def enabled_tids(self) -> List[int]:
        """Threads that can take a step right now, ascending by tid.

        A thread blocked on join becomes enabled once its target finishes
        (the join step itself then drains the target's buffers).

        The list is cached until the runnable set, the blocked-join map
        or a thread's finishing changes it, and shared with snapshots:
        callers must not mutate it.
        """
        enabled = self._enabled
        if enabled is not None:
            return enabled
        enabled = list(self._runnable)
        threads = self.threads
        for tid, target_tid in self._blocked_join.items():
            target = threads.get(target_tid)
            if target is not None and target.finished:
                enabled.append(tid)
        enabled.sort()
        self._enabled = enabled
        return enabled

    def all_finished(self) -> bool:
        return all(t.finished for t in self.threads.values())

    def tids_with_pending(self) -> List[int]:
        """Threads (running or finished) with buffered stores to flush."""
        return self.model.pending_tids()

    def peek(self, tid: int) -> Optional[ins.Instr]:
        """The instruction the thread would execute next (None if blocked
        or finished) — used by the scheduler's partial-order reduction."""
        thread = self.threads[tid]
        if thread.status is not ThreadStatus.RUNNABLE or not thread.frames:
            return None
        frame = thread.top
        return frame.fn.body[frame.ip]

    # ------------------------------------------------------------------
    # Snapshot / restore (fork-and-backtrack exploration)

    def snapshot(self) -> VMSnapshot:
        """Capture the complete execution state.

        The snapshot is independent of further execution: the DFS
        explorer forks the choice tree by executing one branch, restoring,
        and executing the next — one VM step per tree edge instead of an
        O(depth) replay per path.

        Nothing is deep-copied.  The snapshot keeps a shallow copy of the
        thread table and bumps the generation, so every live thread is
        now shared and the VM clones a thread before it next mutates it;
        shared memory hands out its containers the same way.  With no
        ``operations`` to record, the history is never written (it stays
        empty), so the snapshot shares it instead of copying it.
        """
        snap = VMSnapshot.__new__(VMSnapshot)
        snap.history = (self.history.copy() if self.operations
                        else self.history)
        snap.threads = dict(self.threads)
        self._generation += 1
        snap.next_tid = self._next_tid
        snap.steps = self.steps
        snap.seq = self.seq
        snap.flushes = self.flushes
        snap.memory = self.memory.snapshot()
        snap.model = self.model.snapshot()
        snap.runnable = set(self._runnable)
        snap.blocked_join = dict(self._blocked_join)
        snap.enabled = self._enabled
        return snap

    def restore(self, snap: VMSnapshot) -> None:
        """Reinstate a snapshot taken on this VM.

        A snapshot may be restored any number of times.  The VM adopts a
        shallow copy of the snapshot's thread table.  The adopted threads
        stay shared with the snapshot until a step clones them: their
        epochs are all below the generation, which :meth:`snapshot`
        bumped after capturing them and which never decreases.  The
        history is shared, not copied, when the VM records no
        operations, as in :meth:`snapshot`.
        """
        self.history = (snap.history.copy() if self.operations
                        else snap.history)
        self.threads = dict(snap.threads)
        self._runnable = set(snap.runnable)
        self._blocked_join = dict(snap.blocked_join)
        self._enabled = snap.enabled
        self._next_tid = snap.next_tid
        self.steps = snap.steps
        self.seq = snap.seq
        self.flushes = snap.flushes
        self.memory.restore(snap.memory)
        self.model.restore(snap.model)

    def _own(self, tid: int) -> Thread:
        """Clone the shared thread *tid* into the current generation
        (copy-on-write), before its first mutation since the last
        snapshot or restore."""
        thread = self.threads[tid] = self.threads[tid].clone(
            self._generation)
        return thread

    # ------------------------------------------------------------------
    # Memory plumbing

    def _commit(self, tid: int, addr: int, value: int, label: int) -> None:
        """Write a flushed store to shared memory (safety check included:
        the paper checks addresses when a flush occurs)."""
        self.flushes += 1
        self.memory.check(addr, "store flush", tid, label)
        self.memory.write(addr, value)

    def flush_one(self, tid: int, addr: Optional[int] = None) -> bool:
        """Commit one buffered store of *tid* (scheduler action)."""
        return self.model.flush_one(tid, addr)

    def drain_all(self) -> None:
        """Flush every remaining buffer (end of execution), threads
        ascending, each oldest first."""
        model = self.model
        for tid in model.pending_tids():
            model.drain(tid)

    # ------------------------------------------------------------------
    # Value evaluation

    def _value(self, operand, frame: Frame) -> int:
        if isinstance(operand, Reg):
            return frame.regs.get(operand.name, 0)
        if isinstance(operand, Const):
            return operand.value
        if isinstance(operand, Sym):
            return self.memory.global_addr[operand.name]
        raise InterpreterError("bad operand %r" % (operand,))

    # ------------------------------------------------------------------
    # Stepping: the interface every backend implements

    def step(self, tid: int) -> None:
        """Execute one instruction of thread *tid*.

        Bumps ``steps`` and ``seq`` (raising :class:`StepLimitExceeded`
        past ``max_steps``), adds the instruction's label to
        ``coverage``, clones the thread if a snapshot shares it
        (:meth:`_own`), and completes a pending join
        (:meth:`_complete_join`) when the thread is blocked on one.
        """
        raise NotImplementedError

    def run_local(self, tid: int, budget: int,
                  local: frozenset = LOCAL_OPS) -> int:
        """Execute up to *budget* consecutive thread-local instructions.

        Stops early as soon as the thread's next instruction is not in
        *local* (shared access, fence, fork/join, allocation and, unless
        *local* holds them, stores, calls and returns — the
        scheduler-visible actions) or the thread cannot step.  Returns
        the number of instructions executed.  *local* is one of
        :data:`LOCAL_OPS` (the random scheduler), :data:`LOCAL_OPS_ASSERT`
        (the explorer's ``none`` level), :data:`LOCAL_OPS_CALL` or
        :data:`LOCAL_OPS_STORE` (its sleep levels under SC and under
        TSO/PSO).

        Semantically this is exactly ``budget`` repetitions of "peek;
        stop if non-local; :meth:`step`", with the same per-instruction
        accounting (steps, seq, coverage, step limit).  The burst
        follows the thread across frames: a call continues in the
        callee, a return in the caller, and a final return finishes the
        thread and ends the burst.
        """
        raise NotImplementedError

    def _complete_join(self, thread: Thread) -> None:
        target = self.threads.get(thread.join_target)
        if target is None or not target.finished:
            raise InterpreterError(
                "join completion on unfinished thread %r" % thread.join_target)
        # JOIN rule: the joined thread's buffers must be empty; draining
        # them here is the demonic-scheduler-compatible equivalent.
        self.model.drain(target.tid)
        thread.status = ThreadStatus.RUNNABLE
        thread.join_target = None
        self._blocked_join.pop(thread.tid, None)
        self._runnable.add(thread.tid)
        self._enabled = None
        thread.top.ip += 1

"""The generic DIR interpreter: the reference for
:class:`repro.vm.compile.CompiledVM`.

:class:`InterpVM` executes one instruction per table lookup: each
instruction class maps to a handler method that decodes its operands on
every step (``_value``) and evaluates operators through a string-compare
chain (``_apply_binop``/``_apply_unop``).  It shares everything else
with the production VM (threads, copy-on-write snapshots, flushes,
joins) through :class:`repro.vm.interp.VM`.

The differential sweeps build it in place of the compiled VM through the
``reference_vm`` fixture (``tests/conftest.py``) and assert that both
backends produce the same outcomes, histories, predicates, counters,
coverage, explorations and synthesized fences.
"""

from __future__ import annotations

from repro.ir import instructions as ins
from repro.vm.errors import (
    AssertionViolation,
    InterpreterError,
    StepLimitExceeded,
)
from repro.vm.interp import LOCAL_OPS, VM
from repro.vm.state import Frame, Thread, ThreadStatus


class InterpVM(VM):
    """A :class:`VM` that interprets DIR through a dispatch table."""

    def __init__(self, *args, **kwargs) -> None:
        #: Per-function precomputed dispatch lists (function name → list of
        #: handlers aligned with ``fn.body``).  Function bodies only mutate
        #: *between* executions (fence insertion), never during one, so the
        #: cache is valid for this VM's lifetime.
        self._fn_handlers = {}
        super().__init__(*args, **kwargs)

    def _addr(self, operand, frame: Frame) -> int:
        """Evaluate an address operand (Sym resolves to global base)."""
        return self._value(operand, frame)

    # ------------------------------------------------------------------
    # Stepping

    def step(self, tid: int) -> None:
        """Execute one instruction of thread *tid*."""
        thread = self.threads[tid]
        if thread.status is ThreadStatus.FINISHED:
            raise InterpreterError("stepping finished thread %d" % tid)

        self.steps += 1
        if self.steps > self.max_steps:
            raise StepLimitExceeded(
                "execution exceeded %d steps" % self.max_steps)
        self.seq += 1
        if thread.epoch != self._generation:
            thread = self._own(tid)

        if thread.status is ThreadStatus.BLOCKED_JOIN:
            self._complete_join(thread)
            return

        frame = thread.top
        handlers = frame.code
        if handlers is None:
            handlers = frame.code = self._handlers_for(frame.fn)
        ip = frame.ip
        instr = frame.fn.body[ip]
        if self.coverage is not None:
            self.coverage.add(instr.label)
        handlers[ip](self, thread, frame, instr)

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

        Semantically this is exactly ``budget`` repetitions of
        "peek; stop if non-local; step" — the compiled VM implements it
        with superinstruction execution whose per-instruction accounting
        (steps, seq, coverage, step limit) is identical.  Since ``peek``
        reads the top frame, the loop follows the thread across calls
        and returns, and a final return ends it (``peek`` is None).
        """
        executed = 0
        step = self.step
        peek = self.peek
        while executed < budget:
            nxt = peek(tid)
            if nxt is None or nxt.__class__ not in local:
                break
            step(tid)
            executed += 1
        return executed

    # ------------------------------------------------------------------
    # Instruction dispatch
    #
    # Handlers are resolved once per function (not per step, and not via
    # an isinstance chain): ``_handlers_for`` maps a function body to a
    # parallel list of bound-method slots, cached on the frame.

    def _handlers_for(self, fn) -> list:
        handlers = self._fn_handlers.get(fn.name)
        if handlers is None:
            table = _DISPATCH
            try:
                handlers = [table[instr.__class__] for instr in fn.body]
            except KeyError:
                bad = next(i for i in fn.body if i.__class__ not in table)
                raise InterpreterError("unknown instruction %r" % (bad,))
            self._fn_handlers[fn.name] = handlers
        return handlers

    def _dispatch(self, thread: Thread, frame: Frame, instr: ins.Instr) -> None:
        """Execute one decoded instruction (table-driven)."""
        handler = _DISPATCH.get(instr.__class__)
        if handler is None:
            raise InterpreterError("unknown instruction %r" % (instr,))
        handler(self, thread, frame, instr)

    def _exec_const(self, thread, frame, instr) -> None:
        frame.regs[instr.dst.name] = instr.value
        frame.ip += 1

    def _exec_mov(self, thread, frame, instr) -> None:
        frame.regs[instr.dst.name] = self._value(instr.src, frame)
        frame.ip += 1

    def _exec_binop(self, thread, frame, instr) -> None:
        a = self._value(instr.a, frame)
        b = self._value(instr.b, frame)
        frame.regs[instr.dst.name] = _apply_binop(instr.binop, a, b)
        frame.ip += 1

    def _exec_unop(self, thread, frame, instr) -> None:
        a = self._value(instr.a, frame)
        frame.regs[instr.dst.name] = _apply_unop(instr.unop, a)
        frame.ip += 1

    def _exec_load(self, thread, frame, instr) -> None:
        tid = thread.tid
        addr = self._addr(instr.addr, frame)
        self.memory.check(addr, "load", tid, instr.label)
        hit, value = self.model.read(tid, addr, instr.label)
        if not hit:
            value = self.memory.read(addr)
        frame.regs[instr.dst.name] = value
        frame.ip += 1

    def _exec_store(self, thread, frame, instr) -> None:
        addr = self._addr(instr.addr, frame)
        value = self._value(instr.src, frame)
        self.model.write(thread.tid, addr, value, instr.label)
        frame.ip += 1

    def _exec_cas(self, thread, frame, instr) -> None:
        tid = thread.tid
        addr = self._addr(instr.addr, frame)
        expected = self._value(instr.expected, frame)
        new = self._value(instr.new, frame)
        self.model.pre_cas(tid, addr, instr.label)
        self.memory.check(addr, "cas", tid, instr.label)
        if self.memory.read(addr) == expected:
            self.memory.write(addr, new)
            frame.regs[instr.dst.name] = 1
        else:
            frame.regs[instr.dst.name] = 0
        frame.ip += 1

    def _exec_fence(self, thread, frame, instr) -> None:
        self.model.fence(thread.tid, instr.kind)
        frame.ip += 1

    def _exec_br(self, thread, frame, instr) -> None:
        frame.ip = frame.fn.index_of(instr.target)

    def _exec_cbr(self, thread, frame, instr) -> None:
        cond = self._value(instr.cond, frame)
        target = instr.then_target if cond else instr.else_target
        frame.ip = frame.fn.index_of(target)

    def _exec_fork(self, thread, frame, instr) -> None:
        args = [self._value(a, frame) for a in instr.args]
        # Thread creation is a full fence (pthread_create
        # synchronises-with the start of the new thread), so the
        # parent's buffered stores are visible to the child.
        self.model.drain(thread.tid)
        child = self._spawn(instr.fn, args)
        if instr.dst is not None:
            frame.regs[instr.dst.name] = child
        frame.ip += 1

    def _exec_join(self, thread, frame, instr) -> None:
        target_tid = self._value(instr.tid, frame)
        target = self.threads.get(target_tid)
        if target is None:
            raise InterpreterError("join on unknown thread %d" % target_tid)
        if target.finished:
            self.model.drain(target_tid)
            frame.ip += 1
        else:
            thread.status = ThreadStatus.BLOCKED_JOIN
            thread.join_target = target_tid
            self._runnable.discard(thread.tid)
            self._blocked_join[thread.tid] = target_tid
            self._enabled = None

    def _exec_selfid(self, thread, frame, instr) -> None:
        frame.regs[instr.dst.name] = thread.tid
        frame.ip += 1

    def _exec_pagealloc(self, thread, frame, instr) -> None:
        size = self._value(instr.size, frame)
        frame.regs[instr.dst.name] = self.memory.pagealloc(size)
        frame.ip += 1

    def _exec_pagefree(self, thread, frame, instr) -> None:
        addr = self._value(instr.addr, frame)
        self.memory.pagefree(addr)
        frame.ip += 1

    def _exec_addrof(self, thread, frame, instr) -> None:
        frame.regs[instr.dst.name] = self.memory.global_addr[instr.sym.name]
        frame.ip += 1

    def _exec_assert(self, thread, frame, instr) -> None:
        if not self._value(instr.cond, frame):
            raise AssertionViolation(
                instr.message or "assertion failed",
                tid=thread.tid, label=instr.label)
        frame.ip += 1

    def _exec_nop(self, thread, frame, instr) -> None:
        frame.ip += 1

    def _do_call(self, thread: Thread, frame: Frame, instr: ins.Call) -> None:
        callee = self.module.function(instr.fn)
        args = [self._value(a, frame) for a in instr.args]
        op_index = None
        if instr.fn in self.operations:
            history = self.history
            history.begin(thread.tid, instr.fn, args, self.seq)
            op_index = len(history) - 1
        new_frame = Frame(callee, ret_dst=instr.dst, op_index=op_index)
        for param, value in zip(callee.params, args):
            new_frame.regs[param] = value
        thread.frames.append(new_frame)

    def _do_ret(self, thread: Thread, frame: Frame, instr: ins.Ret) -> None:
        value = self._value(instr.value, frame) if instr.value is not None else 0
        if frame.op_index is not None:
            record = self.history.operations[frame.op_index]
            record.result = value
            record.ret_seq = self.seq
        thread.frames.pop()
        if not thread.frames:
            thread.status = ThreadStatus.FINISHED
            thread.result = value
            self._runnable.discard(thread.tid)
            self._enabled = None
            return
        caller = thread.top
        if frame.ret_dst is not None:
            caller.regs[frame.ret_dst.name] = value
        caller.ip += 1


# ----------------------------------------------------------------------
# Dispatch table: instruction class → VM handler.  Built once at import;
# ``_handlers_for`` specialises it into per-function lists.

_DISPATCH = {
    ins.ConstInstr: InterpVM._exec_const,
    ins.Mov: InterpVM._exec_mov,
    ins.BinOp: InterpVM._exec_binop,
    ins.UnOp: InterpVM._exec_unop,
    ins.Load: InterpVM._exec_load,
    ins.Store: InterpVM._exec_store,
    ins.Cas: InterpVM._exec_cas,
    ins.Fence: InterpVM._exec_fence,
    ins.Br: InterpVM._exec_br,
    ins.Cbr: InterpVM._exec_cbr,
    ins.Call: InterpVM._do_call,
    ins.Ret: InterpVM._do_ret,
    ins.Fork: InterpVM._exec_fork,
    ins.Join: InterpVM._exec_join,
    ins.SelfId: InterpVM._exec_selfid,
    ins.PageAlloc: InterpVM._exec_pagealloc,
    ins.PageFree: InterpVM._exec_pagefree,
    ins.AddrOf: InterpVM._exec_addrof,
    ins.Assert: InterpVM._exec_assert,
    ins.Nop: InterpVM._exec_nop,
}


# ----------------------------------------------------------------------
# Operator evaluation (C-like semantics on Python ints)

def _apply_binop(op: str, a: int, b: int) -> int:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b == 0:
            raise InterpreterError("division by zero")
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    if op == "mod":
        if b == 0:
            raise InterpreterError("modulo by zero")
        q = abs(a) % abs(b)
        return q if a >= 0 else -q
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "shl":
        return a << b
    if op == "shr":
        return a >> b
    if op == "eq":
        return int(a == b)
    if op == "ne":
        return int(a != b)
    if op == "lt":
        return int(a < b)
    if op == "le":
        return int(a <= b)
    if op == "gt":
        return int(a > b)
    if op == "ge":
        return int(a >= b)
    raise InterpreterError("unknown binary operator %r" % op)


def _apply_unop(op: str, a: int) -> int:
    if op == "neg":
        return -a
    if op == "not":
        return int(a == 0)
    if op == "bnot":
        return ~a
    raise InterpreterError("unknown unary operator %r" % op)

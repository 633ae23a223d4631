"""Closure-compiled DIR: the VM's one executing backend.

A generic interpreter pays a per-instruction tax on every step: an
attribute chase through ``instr.dst``/``instr.a``, an ``isinstance``
test per operand, a string-compare chain per operator, and a
label→index lookup per branch.  The paper's DFENCE amortizes the
equivalent cost by riding LLVM ``lli``'s pre-decoded bytecode; this
module is the reproduction's analogue: each function body is lowered
*once* into a dense list of specialized Python closures —

* constants are inlined into the closure at compile time (and constant
  subexpressions folded when that cannot change error behaviour),
* register operands are pre-resolved to interned frame-dict keys, so a
  register access is a single hash probe with no operand dispatch,
* branch targets are pre-bound to instruction *offsets* instead of
  label lookups,
* straight-line runs of pure register ops (const/mov/binop/unop) are
  fused into *superinstruction* closures, executed back to back without
  re-entering the step loop.

Every instruction class has its own template.

Superinstructions never change what a scheduler can observe: only
thread-local register ops are fused, and they are only executed in bulk
inside :meth:`CompiledVM.run_local` — the partial-order-reduction burst
that :meth:`VM.run_local` defines as "run local instructions until the next
scheduler-visible action (load, store, CAS, fence, fork/join, operation
call/return) or the budget runs out" (the explorer's burst at its
sleep levels runs calls and returns too, and under TSO/PSO buffered
stores, one at a time).  ``step()`` itself
always executes exactly one instruction, so every existing call site
(round-robin, replay, explorer tree edges) keeps per-instruction
semantics.  The ``steps``/``seq`` counters, coverage sets, and the
step-limit check are maintained per *underlying instruction*, which is
what makes compiled executions byte-identical to those of the generic
interpreter the tests keep as a reference (``tests/reference/interp_vm.py``):
outcomes, histories, predicates, traces — see
``tests/test_compile_equivalence.py``.

Compiled bodies are cached per ``(function, body_version)``:
:class:`~repro.ir.function.Function` bumps ``body_version`` on every
mutation, so a synthesis round that inserts a fence recompiles only the
repaired function while all untouched functions reuse their closures.

Known, documented divergences from the interpreted reference — none
observable through :class:`~repro.vm.driver.ExecutionResult`:

* If an :class:`InterpreterError` (division by zero) is raised from the
  middle of a superinstruction, ``vm.steps``/``vm.seq`` have already
  been bumped for the whole fused run.  The exception propagates out of
  the driver just as it does from the reference.
* ``_advance_local`` (exploration) interleaves different threads' local
  runs depth-first per thread instead of one-op round-robin; local ops
  commute, so the state at every decision point is identical.
"""

from __future__ import annotations

import operator
import sys
import time
from typing import Callable, Dict, List, Tuple
from weakref import WeakKeyDictionary

from ..ir import instructions as ins
from ..ir.function import Function
from ..ir.operands import Const, Reg, Sym
from .errors import AssertionViolation, InterpreterError, StepLimitExceeded
from .interp import (LOCAL_OPS, LOCAL_OPS_ASSERT, LOCAL_OPS_CALL,
                     LOCAL_OPS_STORE, VM)
from .state import Frame, Thread, ThreadStatus

#: A compiled instruction: executes its op(s) and sets ``frame.ip``.
Closure = Callable[["CompiledVM", Thread, Frame], None]

#: Thread statuses as module globals: the hot paths compare against
#: these instead of looking the enum members up on every step.
_RUNNABLE = ThreadStatus.RUNNABLE
_BLOCKED_JOIN = ThreadStatus.BLOCKED_JOIN
_FINISHED = ThreadStatus.FINISHED

#: Pure register-op classes eligible for superinstruction fusion.
_FUSABLE = frozenset((ins.ConstInstr, ins.Mov, ins.BinOp, ins.UnOp))

#: Instruction classes that change the thread's top frame: a local
#: burst that runs them stops its inner loop there and resumes in the
#: frame they leave on top.
_FRAME_OPS = frozenset((ins.Call, ins.Ret))


def make_vm(module, model, **kwargs) -> VM:
    """Build the VM for one execution (a :class:`CompiledVM`).

    Every execution, exploration and synthesis run builds its VM here,
    so this is the one binding a test patches to run them on another
    backend.
    """
    return CompiledVM(module, model, **kwargs)


# ----------------------------------------------------------------------
# Compile-time counters (surfaced as vm/compile/* recorder metrics)

class CompileStats:
    """Process-global template-compiler counters."""

    __slots__ = ("functions", "recompiles", "instructions",
                 "superinstructions", "fused_ops", "cache_hits", "seconds")

    def __init__(self) -> None:
        self.functions = 0          # bodies compiled (incl. recompiles)
        self.recompiles = 0         # of those, version-bump recompiles
        self.instructions = 0       # instructions lowered
        self.superinstructions = 0  # fused runs emitted
        self.fused_ops = 0          # instructions covered by fused runs
        self.cache_hits = 0         # code_for() calls served from cache
        self.seconds = 0.0          # wall-clock spent compiling

    def snapshot(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __repr__(self) -> str:
        return ("<CompileStats %d fns (%d recompiles), %d instrs, "
                "%d superinstrs>" % (self.functions, self.recompiles,
                                     self.instructions,
                                     self.superinstructions))


#: The shared counter instance (per process; worker processes have their
#: own — the recorder only ever folds the engine process's counters).
COMPILE_STATS = CompileStats()


def compile_stats_delta(before: dict) -> dict:
    """Counters accumulated since *before* (a ``snapshot()``)."""
    now = COMPILE_STATS.snapshot()
    return {key: now[key] - before.get(key, 0) for key in now}


# ----------------------------------------------------------------------
# Operand decoding (compile time only)

def _operand(operand) -> Tuple[str, object]:
    """Classify an operand once, at compile time."""
    if isinstance(operand, Reg):
        return "r", sys.intern(operand.name)
    if isinstance(operand, Const):
        return "c", operand.value
    if isinstance(operand, Sym):
        return "s", sys.intern(operand.name)
    raise InterpreterError("bad operand %r" % (operand,))


def _thunk(kind: str, payload):
    """A generic value getter for the rare operand shapes."""
    if kind == "r":
        name = payload

        def get(vm, frame):
            return frame.regs.get(name, 0)
    elif kind == "c":
        value = payload

        def get(vm, frame):
            return value
    else:
        sym = payload

        def get(vm, frame):
            return vm.memory.global_addr[sym]
    return get


def _value_thunk(operand):
    kind, payload = _operand(operand)
    return _thunk(kind, payload)


# ----------------------------------------------------------------------
# Operator tables (C-like semantics on Python ints).  MiniC ``const``
# evaluation (``minic/lower.py``) evaluates with these tables too.

def _div(a: int, b: int) -> int:
    if b == 0:
        raise InterpreterError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise InterpreterError("modulo by zero")
    q = abs(a) % abs(b)
    return q if a >= 0 else -q


def _eq(a, b):
    return 1 if a == b else 0


def _ne(a, b):
    return 1 if a != b else 0


def _lt(a, b):
    return 1 if a < b else 0


def _le(a, b):
    return 1 if a <= b else 0


def _gt(a, b):
    return 1 if a > b else 0


def _ge(a, b):
    return 1 if a >= b else 0


BINOP_FN = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "div": _div, "mod": _mod,
    "and": operator.and_, "or": operator.or_, "xor": operator.xor,
    "shl": operator.lshift, "shr": operator.rshift,
    "eq": _eq, "ne": _ne, "lt": _lt, "le": _le, "gt": _gt, "ge": _ge,
}

UNOP_FN = {
    "neg": operator.neg,
    "not": lambda a: 1 if a == 0 else 0,
    "bnot": operator.invert,
}


# ----------------------------------------------------------------------
# Per-instruction templates.  Every closure ends by setting ``frame.ip``
# (branches to a pre-resolved offset, straight-line code to ``nxt``).

def _compile_const(instr: ins.ConstInstr, nxt: int) -> Closure:
    dst = sys.intern(instr.dst.name)
    value = instr.value

    def op(vm, thread, frame):
        frame.regs[dst] = value
        frame.ip = nxt
    return op


def _compile_mov(instr: ins.Mov, nxt: int) -> Closure:
    dst = sys.intern(instr.dst.name)
    kind, payload = _operand(instr.src)
    if kind == "r":
        src = payload

        def op(vm, thread, frame):
            regs = frame.regs
            regs[dst] = regs.get(src, 0)
            frame.ip = nxt
    elif kind == "c":
        value = payload

        def op(vm, thread, frame):
            frame.regs[dst] = value
            frame.ip = nxt
    else:
        sym = payload

        def op(vm, thread, frame):
            frame.regs[dst] = vm.memory.global_addr[sym]
            frame.ip = nxt
    return op


def _compile_binop(instr: ins.BinOp, nxt: int) -> Closure:
    dst = sys.intern(instr.dst.name)
    fn = BINOP_FN[instr.binop]
    ka, a = _operand(instr.a)
    kb, b = _operand(instr.b)
    if ka == "c" and kb == "c":
        # Constant folding — but only when evaluation cannot raise
        # (div/mod by zero, negative shifts must fail at run time).
        try:
            value = fn(a, b)
        except Exception:
            pass
        else:
            def op(vm, thread, frame):
                frame.regs[dst] = value
                frame.ip = nxt
            return op
    if ka == "r" and kb == "r":
        def op(vm, thread, frame):
            regs = frame.regs
            regs[dst] = fn(regs.get(a, 0), regs.get(b, 0))
            frame.ip = nxt
    elif ka == "r" and kb == "c":
        def op(vm, thread, frame):
            regs = frame.regs
            regs[dst] = fn(regs.get(a, 0), b)
            frame.ip = nxt
    elif ka == "c" and kb == "r":
        def op(vm, thread, frame):
            regs = frame.regs
            regs[dst] = fn(a, regs.get(b, 0))
            frame.ip = nxt
    else:
        ga, gb = _thunk(ka, a), _thunk(kb, b)

        def op(vm, thread, frame):
            frame.regs[dst] = fn(ga(vm, frame), gb(vm, frame))
            frame.ip = nxt
    return op


def _compile_unop(instr: ins.UnOp, nxt: int) -> Closure:
    dst = sys.intern(instr.dst.name)
    fn = UNOP_FN[instr.unop]
    kind, payload = _operand(instr.a)
    if kind == "c":
        value = fn(payload)

        def op(vm, thread, frame):
            frame.regs[dst] = value
            frame.ip = nxt
    elif kind == "r":
        a = payload

        def op(vm, thread, frame):
            regs = frame.regs
            regs[dst] = fn(regs.get(a, 0))
            frame.ip = nxt
    else:
        ga = _thunk(kind, payload)

        def op(vm, thread, frame):
            frame.regs[dst] = fn(ga(vm, frame))
            frame.ip = nxt
    return op


def _compile_load(instr: ins.Load, nxt: int) -> Closure:
    dst = sys.intern(instr.dst.name)
    label = instr.label
    kind, payload = _operand(instr.addr)
    if kind == "r":
        a = payload

        def op(vm, thread, frame):
            regs = frame.regs
            addr = regs.get(a, 0)
            tid = thread.tid
            memory = vm.memory
            memory.check(addr, "load", tid, label)
            hit, value = vm.model.read(tid, addr, label)
            regs[dst] = value if hit else memory.cells.get(addr, 0)
            frame.ip = nxt
    else:
        ga = _thunk(kind, payload)

        def op(vm, thread, frame):
            addr = ga(vm, frame)
            tid = thread.tid
            memory = vm.memory
            memory.check(addr, "load", tid, label)
            hit, value = vm.model.read(tid, addr, label)
            frame.regs[dst] = value if hit else memory.cells.get(addr, 0)
            frame.ip = nxt
    return op


def _compile_store(instr: ins.Store, nxt: int) -> Closure:
    label = instr.label
    ka, a = _operand(instr.addr)
    ks, s = _operand(instr.src)
    if ka == "r" and ks == "r":
        def op(vm, thread, frame):
            regs = frame.regs
            vm.model.write(thread.tid, regs.get(a, 0), regs.get(s, 0),
                           label)
            frame.ip = nxt
    elif ka == "r" and ks == "c":
        def op(vm, thread, frame):
            vm.model.write(thread.tid, frame.regs.get(a, 0), s, label)
            frame.ip = nxt
    else:
        ga, gs = _thunk(ka, a), _thunk(ks, s)

        def op(vm, thread, frame):
            # Evaluation order: address, then value.
            addr = ga(vm, frame)
            vm.model.write(thread.tid, addr, gs(vm, frame), label)
            frame.ip = nxt
    return op


def _compile_cas(instr: ins.Cas, nxt: int) -> Closure:
    dst = sys.intern(instr.dst.name)
    label = instr.label
    ga = _value_thunk(instr.addr)
    ge = _value_thunk(instr.expected)
    gn = _value_thunk(instr.new)

    def op(vm, thread, frame):
        tid = thread.tid
        addr = ga(vm, frame)
        expected = ge(vm, frame)
        new = gn(vm, frame)
        vm.model.pre_cas(tid, addr, label)
        memory = vm.memory
        memory.check(addr, "cas", tid, label)
        if memory.read(addr) == expected:
            memory.write(addr, new)
            frame.regs[dst] = 1
        else:
            frame.regs[dst] = 0
        frame.ip = nxt
    return op


def _compile_fence(instr: ins.Fence, nxt: int) -> Closure:
    kind = instr.kind

    def op(vm, thread, frame):
        vm.model.fence(thread.tid, kind)
        frame.ip = nxt
    return op


def _compile_br(instr: ins.Br, fn: Function) -> Closure:
    target = fn.index_of(instr.target)

    def op(vm, thread, frame):
        frame.ip = target
    return op


def _compile_cbr(instr: ins.Cbr, fn: Function) -> Closure:
    then_ip = fn.index_of(instr.then_target)
    else_ip = fn.index_of(instr.else_target)
    kind, payload = _operand(instr.cond)
    if kind == "r":
        cond = payload

        def op(vm, thread, frame):
            frame.ip = then_ip if frame.regs.get(cond, 0) else else_ip
    elif kind == "c":
        target = then_ip if payload else else_ip

        def op(vm, thread, frame):
            frame.ip = target
    else:
        gc = _thunk(kind, payload)

        def op(vm, thread, frame):
            frame.ip = then_ip if gc(vm, frame) else else_ip
    return op


def _compile_selfid(instr: ins.SelfId, nxt: int) -> Closure:
    dst = sys.intern(instr.dst.name)

    def op(vm, thread, frame):
        frame.regs[dst] = thread.tid
        frame.ip = nxt
    return op


def _compile_addrof(instr: ins.AddrOf, nxt: int) -> Closure:
    dst = sys.intern(instr.dst.name)
    sym = sys.intern(instr.sym.name)

    def op(vm, thread, frame):
        frame.regs[dst] = vm.memory.global_addr[sym]
        frame.ip = nxt
    return op


def _compile_assert(instr: ins.Assert, nxt: int) -> Closure:
    label = instr.label
    message = instr.message or "assertion failed"
    kind, payload = _operand(instr.cond)
    if kind == "r":
        cond = payload

        def op(vm, thread, frame):
            if not frame.regs.get(cond, 0):
                raise AssertionViolation(message, tid=thread.tid,
                                         label=label)
            frame.ip = nxt
    else:
        gc = _thunk(kind, payload)

        def op(vm, thread, frame):
            if not gc(vm, frame):
                raise AssertionViolation(message, tid=thread.tid,
                                         label=label)
            frame.ip = nxt
    return op


def _compile_nop(instr: ins.Nop, nxt: int) -> Closure:
    def op(vm, thread, frame):
        frame.ip = nxt
    return op


def _compile_call(instr: ins.Call) -> Closure:
    """Push the callee's frame; the matching return advances the caller.

    An operation call opens its history record at the call's ``seq``;
    the argument operands are decoded once.
    """
    fn_name = instr.fn
    ret_dst = instr.dst
    operands = tuple(_operand(arg) for arg in instr.args)

    def op(vm, thread, frame):
        callee = vm.module.function(fn_name)
        regs = frame.regs
        args = [regs.get(payload, 0) if kind == "r" else
                payload if kind == "c" else vm.memory.global_addr[payload]
                for kind, payload in operands]
        op_index = None
        if fn_name in vm.operations:
            history = vm.history
            history.begin(thread.tid, fn_name, args, vm.seq)
            op_index = len(history) - 1
        new_frame = Frame(callee, ret_dst, op_index)
        callee_regs = new_frame.regs
        for param, value in zip(callee.params, args):
            callee_regs[param] = value
        thread.frames.append(new_frame)
    return op


def _compile_ret(instr: ins.Ret) -> Closure:
    """Pop the frame, completing its history record, and hand the value
    to the caller — or finish the thread."""
    kind, payload = ("c", 0) if instr.value is None else _operand(instr.value)

    def op(vm, thread, frame):
        if kind == "r":
            value = frame.regs.get(payload, 0)
        elif kind == "c":
            value = payload
        else:
            value = vm.memory.global_addr[payload]
        op_index = frame.op_index
        if op_index is not None:
            record = vm.history.operations[op_index]
            record.result = value
            record.ret_seq = vm.seq
        frames = thread.frames
        frames.pop()
        if not frames:
            thread.status = _FINISHED
            thread.result = value
            vm._runnable.discard(thread.tid)
            vm._enabled = None
            return
        caller = frames[-1]
        ret_dst = frame.ret_dst
        if ret_dst is not None:
            caller.regs[ret_dst.name] = value
        caller.ip += 1
    return op


def _compile_fork(instr: ins.Fork, nxt: int) -> Closure:
    """Spawn a thread running ``instr.fn``; its tid goes to ``dst``.

    Thread creation is a full fence (pthread_create synchronises-with
    the start of the new thread), so the parent's buffered stores are
    drained first and are visible to the child.
    """
    fn_name = instr.fn
    dst = None if instr.dst is None else sys.intern(instr.dst.name)
    getters = tuple(_value_thunk(arg) for arg in instr.args)

    def op(vm, thread, frame):
        args = [get(vm, frame) for get in getters]
        vm.model.drain(thread.tid)
        child = vm._spawn(fn_name, args)
        if dst is not None:
            frame.regs[dst] = child
        frame.ip = nxt
    return op


def _compile_join(instr: ins.Join, nxt: int) -> Closure:
    """Join a finished thread (draining its buffers, the JOIN rule) or
    block on it; :meth:`VM._complete_join` finishes a blocked join."""
    get_tid = _value_thunk(instr.tid)

    def op(vm, thread, frame):
        target_tid = get_tid(vm, frame)
        target = vm.threads.get(target_tid)
        if target is None:
            raise InterpreterError("join on unknown thread %d" % target_tid)
        if target.status is _FINISHED:
            vm.model.drain(target_tid)
            frame.ip = nxt
        else:
            tid = thread.tid
            thread.status = _BLOCKED_JOIN
            thread.join_target = target_tid
            vm._runnable.discard(tid)
            vm._blocked_join[tid] = target_tid
            vm._enabled = None
    return op


def _compile_pagealloc(instr: ins.PageAlloc, nxt: int) -> Closure:
    dst = sys.intern(instr.dst.name)
    get_size = _value_thunk(instr.size)

    def op(vm, thread, frame):
        frame.regs[dst] = vm.memory.pagealloc(get_size(vm, frame))
        frame.ip = nxt
    return op


def _compile_pagefree(instr: ins.PageFree, nxt: int) -> Closure:
    get_addr = _value_thunk(instr.addr)

    def op(vm, thread, frame):
        vm.memory.pagefree(get_addr(vm, frame))
        frame.ip = nxt
    return op


def _compile_instr(instr: ins.Instr, offset: int, fn: Function) -> Closure:
    nxt = offset + 1
    cls = instr.__class__
    if cls is ins.ConstInstr:
        return _compile_const(instr, nxt)
    if cls is ins.Mov:
        return _compile_mov(instr, nxt)
    if cls is ins.BinOp:
        return _compile_binop(instr, nxt)
    if cls is ins.UnOp:
        return _compile_unop(instr, nxt)
    if cls is ins.Load:
        return _compile_load(instr, nxt)
    if cls is ins.Store:
        return _compile_store(instr, nxt)
    if cls is ins.Cas:
        return _compile_cas(instr, nxt)
    if cls is ins.Fence:
        return _compile_fence(instr, nxt)
    if cls is ins.Br:
        return _compile_br(instr, fn)
    if cls is ins.Cbr:
        return _compile_cbr(instr, fn)
    if cls is ins.SelfId:
        return _compile_selfid(instr, nxt)
    if cls is ins.AddrOf:
        return _compile_addrof(instr, nxt)
    if cls is ins.Assert:
        return _compile_assert(instr, nxt)
    if cls is ins.Nop:
        return _compile_nop(instr, nxt)
    if cls is ins.Call:
        return _compile_call(instr)
    if cls is ins.Ret:
        return _compile_ret(instr)
    if cls is ins.Fork:
        return _compile_fork(instr, nxt)
    if cls is ins.Join:
        return _compile_join(instr, nxt)
    if cls is ins.PageAlloc:
        return _compile_pagealloc(instr, nxt)
    if cls is ins.PageFree:
        return _compile_pagefree(instr, nxt)
    raise InterpreterError("unknown instruction %r" % (instr,))


# ----------------------------------------------------------------------
# Superinstruction fusion

def _fuse(parts: List[Closure]) -> Closure:
    """One closure executing a straight-line run of register ops.

    Small runs are unrolled (no loop machinery); longer ones iterate.
    Each part still sets ``frame.ip``, so an exception raised mid-run
    (division by zero) leaves the ip at the failing instruction.
    """
    n = len(parts)
    if n == 2:
        p0, p1 = parts

        def op(vm, thread, frame):
            p0(vm, thread, frame)
            p1(vm, thread, frame)
    elif n == 3:
        p0, p1, p2 = parts

        def op(vm, thread, frame):
            p0(vm, thread, frame)
            p1(vm, thread, frame)
            p2(vm, thread, frame)
    elif n == 4:
        p0, p1, p2, p3 = parts

        def op(vm, thread, frame):
            p0(vm, thread, frame)
            p1(vm, thread, frame)
            p2(vm, thread, frame)
            p3(vm, thread, frame)
    else:
        run = tuple(parts)

        def op(vm, thread, frame):
            for part in run:
                part(vm, thread, frame)
    return op


class CompiledCode:
    """One function body, lowered.  Immutable once built.

    Parallel arrays indexed by instruction offset:

    * ``code``    — preferred closure: a superinstruction at fused-run
      heads, the single-op closure everywhere else.  Offsets *inside* a
      fused run keep their single closure here, so a branch (or snapshot
      restore) landing mid-run resumes correctly, one op at a time.
    * ``singles`` — always the single-op closure (budget-exact stepping).
    * ``ops``     — how many instructions ``code[i]`` executes.
    * ``labels``  — the labels ``code[i]`` covers (coverage sets).
    * ``label_of``— the label at offset i.

    ``local`` maps each locality set of :mod:`repro.vm.interp`
    (``LOCAL_OPS``, ``LOCAL_OPS_ASSERT``, ``LOCAL_OPS_CALL``,
    ``LOCAL_OPS_STORE``) to its flags per offset, the form
    :meth:`CompiledVM.run_local` selects.  ``inner`` holds the same flags
    with calls and returns cleared: the ones the burst's inner loop runs
    without leaving the frame.  For a set without calls and returns it
    is the ``local`` tuple itself.
    """

    __slots__ = ("fn_name", "version", "code", "singles", "ops", "labels",
                 "label_of", "local", "inner")

    def __init__(self, fn: Function) -> None:
        body = fn.body
        self.fn_name = fn.name
        self.version = fn.body_version
        singles = [_compile_instr(instr, i, fn)
                   for i, instr in enumerate(body)]
        self.singles = singles
        self.label_of = tuple(instr.label for instr in body)
        self.local = local = {
            ops: tuple(instr.__class__ in ops for instr in body)
            for ops in (LOCAL_OPS, LOCAL_OPS_ASSERT, LOCAL_OPS_CALL,
                        LOCAL_OPS_STORE)}
        self.inner = {
            ops: (flags if ops.isdisjoint(_FRAME_OPS) else
                  tuple(instr.__class__ in ops
                        and instr.__class__ not in _FRAME_OPS
                        for instr in body))
            for ops, flags in local.items()}

        targets = set()
        for instr in body:
            for label in instr.jump_targets():
                targets.add(fn.index_of(label))

        code = list(singles)
        ops = [1] * len(body)
        labels: List[Tuple[int, ...]] = [(instr.label,) for instr in body]
        fused_runs = 0
        fused_ops = 0
        i = 0
        n = len(body)
        while i < n:
            if body[i].__class__ in _FUSABLE:
                j = i + 1
                while (j < n and body[j].__class__ in _FUSABLE
                       and j not in targets):
                    j += 1
                if j - i >= 2:
                    code[i] = _fuse(singles[i:j])
                    ops[i] = j - i
                    labels[i] = tuple(instr.label for instr in body[i:j])
                    fused_runs += 1
                    fused_ops += j - i
                i = j
            else:
                i += 1
        self.code = code
        self.ops = ops
        self.labels = tuple(labels)

        stats = COMPILE_STATS
        stats.instructions += n
        stats.superinstructions += fused_runs
        stats.fused_ops += fused_ops

    def __repr__(self) -> str:
        fused = sum(1 for n in self.ops if n > 1)
        return "<CompiledCode %s v%d: %d instrs, %d superinstrs>" % (
            self.fn_name, self.version, len(self.singles), fused)


#: Compiled-body cache: function → CompiledCode, validated against
#: ``body_version`` on every lookup.  Weak keys, so repaired-and-dropped
#: module clones do not accumulate; worker processes each hold their own.
_CACHE: "WeakKeyDictionary[Function, CompiledCode]" = WeakKeyDictionary()


def code_for(fn: Function) -> CompiledCode:
    """The compiled body for *fn*, (re)compiling if the body changed."""
    cached = _CACHE.get(fn)
    if cached is not None and cached.version == fn.body_version:
        COMPILE_STATS.cache_hits += 1
        return cached
    start = time.perf_counter()
    compiled = CompiledCode(fn)
    COMPILE_STATS.seconds += time.perf_counter() - start
    COMPILE_STATS.functions += 1
    if cached is not None:
        COMPILE_STATS.recompiles += 1
    _CACHE[fn] = compiled
    return compiled


# ----------------------------------------------------------------------
# The compiled VM

class CompiledVM(VM):
    """A :class:`VM` that executes closure-compiled bodies.

    The differential sweep asserts byte-identical outcomes, histories,
    predicates and synthesized fences against the generic interpreter
    kept as a test reference.  ``snapshot()``/``restore()`` are
    inherited unchanged — compiled code is pure per-function data
    shared across frames and snapshots, and every offset keeps a
    single-op closure, so a restore into the middle of a fused run
    resumes one op at a time.  ``step``/``run_local`` clone a thread
    shared with a snapshot before they mutate it.
    """

    def __init__(self, *args, **kwargs) -> None:
        self._fn_code: Dict[str, CompiledCode] = {}
        super().__init__(*args, **kwargs)

    def _code_for(self, fn: Function) -> CompiledCode:
        code = self._fn_code.get(fn.name)
        if code is None:
            code = self._fn_code[fn.name] = code_for(fn)
        return code

    def step(self, tid: int) -> None:
        """Execute exactly one instruction of thread *tid* (compiled)."""
        thread = self.threads[tid]
        status = thread.status
        if status is _FINISHED:
            raise InterpreterError("stepping finished thread %d" % tid)

        steps = self.steps = self.steps + 1
        if steps > self.max_steps:
            raise StepLimitExceeded(
                "execution exceeded %d steps" % self.max_steps)
        self.seq += 1
        if thread.epoch != self._generation:
            thread = self._own(tid)

        if status is _BLOCKED_JOIN:
            self._complete_join(thread)
            return

        frame = thread.frames[-1]
        code = frame.code
        if code is None:
            code = frame.code = self._code_for(frame.fn)
        ip = frame.ip
        if self.coverage is not None:
            self.coverage.add(code.label_of[ip])
        code.singles[ip](self, thread, frame)

    def run_local(self, tid: int, budget: int,
                  local: frozenset = LOCAL_OPS) -> int:
        """Budget-exact local burst over compiled code.

        Executes the instruction sequence :meth:`VM.run_local` defines,
        but fused runs that fit the remaining budget go through one
        superinstruction closure; a run that would overshoot the budget
        falls back to single-op closures, so the burst never executes
        more instructions than the budget.

        The inner loop runs one frame's ``inner`` flags and never looks
        at frames.  Only where it stops does the burst consult the
        ``local`` flags: a call or return in *local* then runs as one
        step, and the burst resumes in the frame it leaves on top, or
        ends when a final return finished the thread.
        """
        thread = self.threads[tid]
        if thread.status is not _RUNNABLE:
            return 0
        frame = thread.frames[-1]
        code = frame.code
        if code is None:
            code = frame.code = self._code_for(frame.fn)
        flags = code.local[local]
        if not flags[frame.ip]:
            return 0
        if thread.epoch != self._generation:
            thread = self._own(tid)
            frame = thread.frames[-1]
        frames = thread.frames
        coverage = self.coverage
        max_steps = self.max_steps
        # Local ops never read the counters, so they live in locals for
        # the burst.  They are written back however the burst ends: an
        # exception from inside a fused run leaves the whole run counted.
        steps = self.steps
        seq = self.seq
        executed = 0
        try:
            while True:
                inner = code.inner[local]
                preferred = code.code
                singles = code.singles
                ops = code.ops
                labels = code.labels
                while executed < budget:
                    ip = frame.ip
                    if not inner[ip]:
                        break
                    cl = preferred[ip]
                    n = ops[ip]
                    if n > budget - executed:
                        cl = singles[ip]
                        n = 1
                    new_steps = steps + n
                    if new_steps > max_steps:
                        # The limit falls inside this batch: revert to
                        # exact per-op accounting so the exception is
                        # raised at the instruction that exceeds it.
                        while True:
                            steps += 1
                            if steps > max_steps:
                                raise StepLimitExceeded(
                                    "execution exceeded %d steps"
                                    % max_steps)
                            seq += 1
                            if coverage is not None:
                                coverage.add(code.label_of[frame.ip])
                            singles[frame.ip](self, thread, frame)
                    steps = new_steps
                    seq += n
                    if coverage is not None:
                        coverage.update(labels[ip])
                    cl(self, thread, frame)
                    executed += n
                else:
                    break  # budget used up
                if not flags[ip]:
                    break  # a scheduler-visible action
                # A call or return: one step, with the counters written
                # back first (an operation's history record reads seq).
                steps += 1
                if steps > max_steps:
                    raise StepLimitExceeded(
                        "execution exceeded %d steps" % max_steps)
                seq += 1
                self.steps = steps
                self.seq = seq
                if coverage is not None:
                    coverage.add(code.label_of[ip])
                singles[ip](self, thread, frame)
                executed += 1
                if not frames:
                    break  # a final return finished the thread
                frame = frames[-1]
                code = frame.code
                if code is None:
                    code = frame.code = self._code_for(frame.fn)
                flags = code.local[local]
        finally:
            self.steps = steps
            self.seq = seq
        return executed

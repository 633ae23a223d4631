"""Classic clean-up optimisations over DIR.

Three label-stable passes, applied to fixpoint by :func:`optimize_function`:

* **constant folding** — evaluate register-pure ops whose operands are
  known constants (per basic block, no cross-block propagation), and turn
  constant-condition ``cbr`` into ``br``;
* **unreachable-code elimination** — drop whole blocks the CFG cannot
  reach from the entry;
* **dead-register elimination** — remove register-pure instructions whose
  destination is never read.

Shared-memory operations (load/store/cas/fence) are never touched: under
a relaxed memory model they are observable effects regardless of whether
their results look dead.  All passes preserve instruction labels of the
surviving instructions, so ordering predicates and fence placements stay
valid.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from .. import instructions as ins
from ..cfg import CFG
from ..function import Function
from ..module import Module
from ..operands import Const, Reg
from ..verifier import verify_module


def optimize_module(module: Module, max_iterations: int = 8) -> int:
    """Run the clean-up pipeline on every function; returns the number of
    instructions removed or simplified."""
    total = 0
    for fn in module.functions.values():
        total += optimize_function(module, fn, max_iterations)
    verify_module(module)
    return total


def optimize_function(module: Module, fn: Function,
                      max_iterations: int = 8) -> int:
    total = 0
    for _ in range(max_iterations):
        changed = fold_constants(fn)
        changed += remove_unreachable(fn)
        changed += remove_dead_registers(fn)
        total += changed
        if not changed:
            break
    return total


# ----------------------------------------------------------------------
# Constant folding

def fold_constants(fn: Function) -> int:
    """Per-block constant folding; returns the number of simplifications."""
    changed = 0
    cfg = CFG(fn)
    for block in cfg.blocks:
        known: Dict[str, int] = {}
        for pos in range(block.start, block.end):
            instr = fn.body[pos]
            new_instr, delta = _fold_one(instr, known)
            if new_instr is not None:
                fn.body[pos] = new_instr
                instr = new_instr
            changed += delta
            _update_known(instr, known)
    if changed:
        fn.invalidate_index()
    return changed


def _const_of(operand, known: Dict[str, int]) -> Optional[int]:
    if isinstance(operand, Const):
        return operand.value
    if isinstance(operand, Reg) and operand.name in known:
        return known[operand.name]
    return None


def _fold_one(instr, known):
    """Try to simplify one instruction; returns (replacement|None, n)."""
    from ...vm.compile import BINOP_FN, UNOP_FN

    if isinstance(instr, ins.BinOp):
        a = _const_of(instr.a, known)
        b = _const_of(instr.b, known)
        if a is not None and b is not None:
            try:
                value = BINOP_FN[instr.binop](a, b)
            except Exception:
                return (None, 0)  # e.g. division by zero: leave for runtime
            return (ins.ConstInstr(instr.label, instr.dst, value,
                                   instr.src_line), 1)
    elif isinstance(instr, ins.UnOp):
        a = _const_of(instr.a, known)
        if a is not None:
            value = UNOP_FN[instr.unop](a)
            return (ins.ConstInstr(instr.label, instr.dst, value,
                                   instr.src_line), 1)
    elif isinstance(instr, ins.Mov):
        value = _const_of(instr.src, known)
        if value is not None and not isinstance(instr.src, Const):
            return (ins.Mov(instr.label, instr.dst, Const(value),
                            instr.src_line), 1)
    elif isinstance(instr, ins.Cbr):
        cond = _const_of(instr.cond, known)
        if cond is not None:
            target = instr.then_target if cond else instr.else_target
            return (ins.Br(instr.label, target, instr.src_line), 1)
    return (None, 0)


def _update_known(instr, known: Dict[str, int]) -> None:
    """Track constant registers; any other write kills the fact."""
    if isinstance(instr, ins.ConstInstr):
        known[instr.dst.name] = instr.value
    elif isinstance(instr, ins.Mov) and isinstance(instr.src, Const):
        known[instr.dst.name] = instr.src.value
    else:
        dst = getattr(instr, "dst", None)
        if isinstance(dst, Reg):
            known.pop(dst.name, None)


# ----------------------------------------------------------------------
# Unreachable code elimination

def remove_unreachable(fn: Function) -> int:
    """Drop instructions in blocks unreachable from the entry."""
    cfg = CFG(fn)
    if not cfg.blocks:
        return 0
    reachable: Set[int] = set()
    worklist = [0]
    while worklist:
        bi = worklist.pop()
        if bi in reachable:
            continue
        reachable.add(bi)
        worklist.extend(cfg.blocks[bi].successors)
    if len(reachable) == len(cfg.blocks):
        return 0
    keep = []
    removed = 0
    for pos, instr in enumerate(fn.body):
        if cfg.block_of_instr[pos] in reachable:
            keep.append(instr)
        else:
            removed += 1
    fn.body = keep
    fn.invalidate_index()
    return removed


# ----------------------------------------------------------------------
# Dead register elimination

#: Instruction types that only define a register and have no other effect.
_PURE_DEFS = (ins.ConstInstr, ins.Mov, ins.BinOp, ins.UnOp, ins.SelfId,
              ins.AddrOf)


def remove_dead_registers(fn: Function) -> int:
    """Remove register-pure instructions whose destination is never read.

    Instructions that are branch targets are replaced by same-label nops
    instead of deleted, keeping every jump valid.
    """
    removed = 0
    while True:
        used = _used_registers(fn)
        targeted = {t for i in fn.body for t in i.jump_targets()}
        victims = {instr.label for instr in fn.body
                   if isinstance(instr, _PURE_DEFS)
                   and instr.dst.name not in used}
        if not victims:
            return removed
        new_body = []
        for instr in fn.body:
            if instr.label not in victims:
                new_body.append(instr)
            elif instr.label in targeted:
                new_body.append(ins.Nop(instr.label, instr.src_line))
            # else: dropped entirely
        fn.body = new_body
        fn.invalidate_index()
        removed += len(victims)


def _used_registers(fn: Function) -> Set[str]:
    used: Set[str] = set()

    def use(operand):
        if isinstance(operand, Reg):
            used.add(operand.name)

    for instr in fn.body:
        if isinstance(instr, ins.Mov):
            use(instr.src)
        elif isinstance(instr, ins.BinOp):
            use(instr.a)
            use(instr.b)
        elif isinstance(instr, ins.UnOp):
            use(instr.a)
        elif isinstance(instr, ins.Load):
            use(instr.addr)
        elif isinstance(instr, ins.Store):
            use(instr.src)
            use(instr.addr)
        elif isinstance(instr, ins.Cas):
            use(instr.addr)
            use(instr.expected)
            use(instr.new)
        elif isinstance(instr, ins.Cbr):
            use(instr.cond)
        elif isinstance(instr, (ins.Call, ins.Fork)):
            for arg in instr.args:
                use(arg)
        elif isinstance(instr, ins.Ret):
            if instr.value is not None:
                use(instr.value)
        elif isinstance(instr, ins.Join):
            use(instr.tid)
        elif isinstance(instr, (ins.PageAlloc,)):
            use(instr.size)
        elif isinstance(instr, ins.PageFree):
            use(instr.addr)
        elif isinstance(instr, ins.Assert):
            use(instr.cond)
    return used

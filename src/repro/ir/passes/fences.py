"""Fence manipulation passes.

* :func:`insert_fence_after` — the enforcement primitive of Algorithm 2:
  insert a fence immediately after a given label.
* :func:`merge_redundant_fences` — the paper's static merge optimisation:
  "eliminates a fence if it can prove that it always follows a previous
  fence statement in program order, with no store statements on shared
  variables occurring in between".
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from ..cfg import CFG
from ..function import Function
from ..instructions import Cas, Fence, FenceKind, Instr
from ..module import Module

#: The orderings a fence of each kind provides.
_EFFECTS = {
    FenceKind.FULL: frozenset({FenceKind.FULL, FenceKind.ST_ST, FenceKind.ST_LD}),
    FenceKind.ST_ST: frozenset({FenceKind.ST_ST}),
    FenceKind.ST_LD: frozenset({FenceKind.ST_LD}),
}

_ALL: FrozenSet[FenceKind] = _EFFECTS[FenceKind.FULL]
_NONE: FrozenSet[FenceKind] = frozenset()


def insert_fence_after(module: Module, label: int, kind: FenceKind,
                       synthesized: bool = True) -> Optional[Instr]:
    """Insert a fence of *kind* right after the instruction labelled *label*.

    If the very next instruction is already a fence that subsumes *kind*,
    nothing is inserted and None is returned.  Returns the new fence
    instruction otherwise.
    """
    fn, instr = module.find_instr(label)
    pos = fn.index_of(label)
    if pos + 1 < len(fn.body):
        nxt = fn.body[pos + 1]
        if isinstance(nxt, Fence) and nxt.kind.subsumes(kind):
            return None
    fence = Fence(module.new_label(), kind, instr.src_line, synthesized)
    fn.insert_after(label, fence)
    return fence


def merge_redundant_fences(module: Module) -> int:
    """Remove fences provably redundant; return how many were removed.

    Forward dataflow per function.  The fact tracked at each program point
    is the set of fence effects guaranteed to be in force with no shared
    store executed since (CAS counts as a store for conservatism, even
    though it also drains buffers).  A fence whose effects are already all
    in force on every incoming path is removed.
    """
    removed_total = 0
    for fn in module.functions.values():
        removed_total += _merge_in_function(fn)
    return removed_total


def _merge_in_function(fn: Function) -> int:
    from ..instructions import Nop

    removed = 0
    while True:
        victim = _find_redundant_fence(fn)
        if victim is None:
            return removed
        # Replace rather than delete: the fence may be a branch target, so
        # its label must survive (as a harmless nop).
        pos = fn.index_of(victim)
        old = fn.body[pos]
        fn.body[pos] = Nop(victim, old.src_line)
        fn.invalidate_index()
        removed += 1


def _find_redundant_fence(fn: Function) -> Optional[int]:
    """Return the label of one provably redundant fence, or None."""
    cfg = CFG(fn)
    if not cfg.blocks:
        return None
    body = fn.body

    # in_state[b]: effects guaranteed on entry to block b.
    in_state: List[FrozenSet[FenceKind]] = [_ALL] * len(cfg.blocks)
    in_state[0] = _NONE
    worklist = list(range(len(cfg.blocks)))
    out_state: Dict[int, FrozenSet[FenceKind]] = {}

    while worklist:
        bi = worklist.pop()
        block = cfg.blocks[bi]
        state = in_state[bi]
        for pos in range(block.start, block.end):
            state = _transfer(body[pos], state)
        if out_state.get(bi) == state:
            continue
        out_state[bi] = state
        for succ in block.successors:
            merged = in_state[succ] & state
            if merged != in_state[succ] or succ not in out_state:
                in_state[succ] = merged
                if succ not in worklist:
                    worklist.append(succ)

    for block in cfg.blocks:
        state = in_state[block.index]
        for pos in range(block.start, block.end):
            instr = body[pos]
            if isinstance(instr, Fence) and _EFFECTS[instr.kind] <= state:
                return instr.label
            state = _transfer(instr, state)
    return None


def _transfer(instr: Instr, state: FrozenSet[FenceKind]) -> FrozenSet[FenceKind]:
    if isinstance(instr, Fence):
        return state | _EFFECTS[instr.kind]
    if instr.is_store() or isinstance(instr, Cas):
        return _NONE
    return state

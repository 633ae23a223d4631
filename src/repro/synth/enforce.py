"""Enforcing ordering predicates as fences (Algorithm 2).

``[l < k] = true`` is realised by inserting a memory fence right after
label ``l``; the fence flavour is store-load or store-store depending on
the statement at ``k`` (FULL when both flavours were demanded).  After
insertion, the redundant-fence merge pass runs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..ir.instructions import Cas, Fence, FenceKind
from ..ir.module import Module, GlobalVar
from ..ir.operands import Const, Reg, Sym
from ..ir.passes.fences import insert_fence_after, merge_redundant_fences
from ..memory.predicates import OrderingPredicate


class FencePlacement:
    """A fence inserted by the engine, with reporting metadata.

    ``function``/``after_line``/``before_line`` give the paper-style triple
    "(method, line1:line2)": the fence sits between source lines
    ``after_line`` and ``before_line`` of ``function``.
    """

    def __init__(self, fence_label: int, function: str, kind: FenceKind,
                 after_line: Optional[int], before_line: Optional[int],
                 predicate: OrderingPredicate) -> None:
        self.fence_label = fence_label
        self.function = function
        self.kind = kind
        self.after_line = after_line
        self.before_line = before_line
        self.predicate = predicate

    def location(self) -> str:
        """The paper's (method, line1:line2) description."""
        first = "?" if self.after_line is None else str(self.after_line)
        second = "-" if self.before_line is None else str(self.before_line)
        return "(%s, %s:%s)" % (self.function, first, second)

    def __repr__(self) -> str:
        return "<Fence %s %s from %r>" % (
            self.location(), self.kind.value, self.predicate)


def enforce(module: Module, predicates: Sequence[OrderingPredicate],
            merge: bool = True) -> List[FencePlacement]:
    """Insert a fence for each predicate; returns the placements made.

    Predicates whose ``l`` is already immediately followed by a subsuming
    fence insert nothing.  With ``merge`` True the redundant-fence merge
    pass runs afterwards; placements whose fence was merged away are
    dropped from the returned list.
    """
    placements: List[FencePlacement] = []
    for pred in predicates:
        fn, store_instr = module.find_instr(pred.store_label)
        fence = insert_fence_after(module, pred.store_label, pred.kind)
        if fence is None:
            continue
        before_line = _next_source_line(module, fn.name, fence.label)
        placements.append(FencePlacement(
            fence.label, fn.name, pred.kind,
            store_instr.src_line, before_line, pred))

    if merge:
        merge_redundant_fences(module)
        placements = [p for p in placements
                      if fence_still_present(module, p.fence_label)]
    return placements


#: Name of the dummy location used by CAS-based enforcement.
CAS_DUMMY_GLOBAL = "__fence_dummy"


def enforce_with_cas(module: Module,
                     predicates: Sequence[OrderingPredicate]
                     ) -> List[int]:
    """Enforce predicates with CAS to a dummy location (paper §4.2).

    On TSO a locked compare-and-swap — regardless of success — drains the
    store buffer, so ``cas(dummy, 0, 0)`` right after label ``l`` orders
    ``l`` before everything later, exactly like a fence.  The paper notes
    this is *not* generally sound on PSO (a CAS only drains the target
    variable's buffer there); callers should use it for TSO programs.

    Returns the labels of the inserted CAS instructions.
    """
    if CAS_DUMMY_GLOBAL not in module.globals:
        module.add_global(GlobalVar(CAS_DUMMY_GLOBAL))
    inserted: List[int] = []
    for pred in predicates:
        fn, store_instr = module.find_instr(pred.store_label)
        pos = fn.index_of(pred.store_label)
        if pos + 1 < len(fn.body):
            nxt = fn.body[pos + 1]
            if isinstance(nxt, Cas) and nxt.addr == Sym(CAS_DUMMY_GLOBAL):
                continue  # already enforced here
        label = module.new_label()
        # The result register is never read; the CAS compares 0 with the
        # dummy cell (which stays 0), so memory is unchanged either way.
        cas = Cas(label, Reg(".fence_cas_%d" % label),
                  Sym(CAS_DUMMY_GLOBAL), Const(0), Const(0),
                  store_instr.src_line)
        fn.insert_after(pred.store_label, cas)
        inserted.append(label)
    return inserted


def synthesized_fences(module: Module) -> List[Fence]:
    """All engine-inserted fences currently present in the module."""
    fences = []
    for fn in module.functions.values():
        for instr in fn:
            if isinstance(instr, Fence) and instr.synthesized:
                fences.append(instr)
    return fences


def fence_still_present(module: Module, label: int) -> bool:
    """True if the fence inserted under *label* survives in the module.

    The redundant-fence merge pass replaces removed fences by same-label
    nops (and later enforcement rounds may merge earlier fences away), so
    placement lists are filtered through this after every merge.
    """
    try:
        _fn, instr = module.find_instr(label)
    except KeyError:
        return False
    # The merge pass replaces removed fences by same-label nops.
    return isinstance(instr, Fence)


def _next_source_line(module: Module, fn_name: str,
                      fence_label: int) -> Optional[int]:
    """Source line of the first following instruction with one (for the
    "line2" half of the paper's reporting triple)."""
    fn = module.function(fn_name)
    pos = fn.index_of(fence_label)
    for instr in fn.body[pos + 1:]:
        if instr.src_line is not None:
            return instr.src_line
    return None

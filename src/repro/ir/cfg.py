"""Control-flow graph construction over flat DIR instruction lists.

Used by the redundant-fence merge pass and by the explorer's static
may-access tables (and available for general analyses).  Blocks are
maximal straight-line instruction runs; edges follow branch targets and
fallthrough.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .function import Function
from .instructions import Br, Cbr, Ret


class BasicBlock:
    """A maximal straight-line run of instructions."""

    def __init__(self, index: int, start: int, end: int) -> None:
        self.index = index
        self.start = start          # index of first instruction in fn.body
        self.end = end              # index one past the last instruction
        self.successors: List[int] = []
        self.predecessors: List[int] = []

    def __repr__(self) -> str:
        return "<BB%d [%d:%d] -> %r>" % (
            self.index, self.start, self.end, self.successors)


class CFG:
    """Control-flow graph of one function."""

    def __init__(self, fn: Function) -> None:
        self.fn = fn
        self.blocks: List[BasicBlock] = []
        self.block_of_instr: Dict[int, int] = {}  # body index -> block index
        self._build()

    def _build(self) -> None:
        body = self.fn.body
        if not body:
            return
        index = self.fn.label_index

        leaders = {0}
        for i, instr in enumerate(body):
            for target in instr.jump_targets():
                leaders.add(index[target])
            if instr.is_terminator() and i + 1 < len(body):
                leaders.add(i + 1)
        ordered = sorted(leaders)

        for bi, start in enumerate(ordered):
            end = ordered[bi + 1] if bi + 1 < len(ordered) else len(body)
            block = BasicBlock(bi, start, end)
            self.blocks.append(block)
            for pos in range(start, end):
                self.block_of_instr[pos] = bi

        for block in self.blocks:
            last = body[block.end - 1]
            if isinstance(last, Ret):
                continue
            if isinstance(last, Br):
                block.successors.append(self.block_of_instr[index[last.target]])
            elif isinstance(last, Cbr):
                block.successors.append(
                    self.block_of_instr[index[last.then_target]])
                succ = self.block_of_instr[index[last.else_target]]
                if succ not in block.successors:
                    block.successors.append(succ)
            elif block.end < len(body):
                block.successors.append(self.block_of_instr[block.end])

        for block in self.blocks:
            for succ in block.successors:
                self.blocks[succ].predecessors.append(block.index)

    def acyclic_post_order(self) -> Optional[List[BasicBlock]]:
        """The blocks in post-order of one depth-first search (the entry
        first, then each block not reached yet, in index order), so that
        every block comes after all of its successors; or None when the
        CFG has a cycle (a loop, reachable or not).
        """
        blocks = self.blocks
        state = [0] * len(blocks)  # 0 new, 1 on the stack, 2 finished
        order: List[BasicBlock] = []
        for root in range(len(blocks)):
            if state[root]:
                continue
            state[root] = 1
            stack = [(root, iter(blocks[root].successors))]
            while stack:
                index, successors = stack[-1]
                for succ in successors:
                    if state[succ] == 0:
                        state[succ] = 1
                        stack.append((succ, iter(blocks[succ].successors)))
                        break
                    if state[succ] == 1:
                        return None  # a back edge
                else:
                    stack.pop()
                    state[index] = 2
                    order.append(blocks[index])
        return order

    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def __len__(self) -> int:
        return len(self.blocks)

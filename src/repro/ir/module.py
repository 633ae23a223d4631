"""DIR modules: globals + functions + the label allocator.

A module is the unit the synthesis engine operates on: it is compiled once
from MiniC, executed many times, and mutated between rounds by inserting
fences.  Labels are allocated from a per-module counter so that cloning a
module (to keep the original pristine) preserves every label.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Optional, Tuple

from .function import Function
from .instructions import Instr


class GlobalVar:
    """A module-level global occupying ``size`` consecutive shared cells.

    ``init`` holds initial cell values; missing entries default to zero.
    Scalars have ``size == 1``; arrays and structs span multiple cells.
    """

    def __init__(self, name: str, size: int = 1,
                 init: Optional[Iterable[int]] = None) -> None:
        if size < 1:
            raise ValueError("global %r must occupy at least one cell" % name)
        self.name = name
        self.size = size
        self.init: List[int] = list(init) if init is not None else []
        if len(self.init) > size:
            raise ValueError("initializer for %r longer than its size" % name)

    def __repr__(self) -> str:
        return "<GlobalVar %s[%d]>" % (self.name, self.size)


class Module:
    """A complete DIR program: globals, functions, and metadata.

    Attributes:
        name: module name (usually the benchmark name).
        globals: ordered mapping of global name → :class:`GlobalVar`.
        functions: mapping of function name → :class:`Function`.
        source: optional MiniC source text this module was compiled from
            (kept for line-number reporting).
    """

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.globals: Dict[str, GlobalVar] = {}
        self.functions: Dict[str, Function] = {}
        self.source: Optional[str] = None
        self._next_label = 0

    # ------------------------------------------------------------------
    # Label allocation

    def new_label(self) -> int:
        """Allocate a fresh, module-unique instruction label."""
        label = self._next_label
        self._next_label += 1
        return label

    # ------------------------------------------------------------------
    # Construction

    def add_global(self, var: GlobalVar) -> GlobalVar:
        if var.name in self.globals:
            raise ValueError("duplicate global %r" % var.name)
        self.globals[var.name] = var
        return var

    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise ValueError("duplicate function %r" % fn.name)
        self.functions[fn.name] = fn
        return fn

    # ------------------------------------------------------------------
    # Lookup

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError("no function named %r in module %s"
                           % (name, self.name)) from None

    def find_instr(self, label: int) -> Tuple[Function, Instr]:
        """Locate an instruction by label anywhere in the module."""
        for fn in self.functions.values():
            if fn.has_label(label):
                return fn, fn.instr_at(label)
        raise KeyError("no instruction with label L%d" % label)

    # ------------------------------------------------------------------
    # Cloning

    def clone(self) -> "Module":
        """Deep-copy the module, preserving all labels.

        The synthesis engine clones the input program so it can enforce
        fences without mutating the caller's module.
        """
        other = Module(self.name)
        other.source = self.source
        other._next_label = self._next_label
        for var in self.globals.values():
            other.add_global(GlobalVar(var.name, var.size, list(var.init)))
        for fn in self.functions.values():
            copy_fn = Function(fn.name, list(fn.params))
            copy_fn.body = [copy.copy(instr) for instr in fn.body]
            other.add_function(copy_fn)
        return other

    # ------------------------------------------------------------------
    # Statistics (used by the Table 2 benchmark)

    def instruction_count(self) -> int:
        return sum(len(fn) for fn in self.functions.values())

    def store_count(self) -> int:
        """Number of shared-store instructions — the paper's "insertion
        points" column in Table 3."""
        return sum(1 for fn in self.functions.values()
                   for instr in fn if instr.is_store())

    def __repr__(self) -> str:
        return "<Module %s: %d globals, %d functions, %d instrs>" % (
            self.name, len(self.globals), len(self.functions),
            self.instruction_count())

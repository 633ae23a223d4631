"""Shared memory with allocation metadata for memory-safety checking.

Memory is word-granular: a map from integer address to integer value, where
each address is one "shared variable" for the memory model's per-variable
buffers.  Module globals are laid out at load time; ``pagealloc`` hands out
fresh 2-aligned regions (the low pointer bit stays free for marked-pointer
algorithms such as Harris's set).

Safety checking follows the paper: every load, CAS, and *flush* target is
checked against the live-region table; freeing does not flush buffers, so a
delayed store flushing into a freed region is caught here.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, Iterable, List, Optional, Tuple

from ..ir.module import Module
from .errors import MemorySafetyViolation

#: Addresses below this are never valid; address 0 acts as NULL.
NULL_GUARD = 16


class SharedMemory:
    """Word-addressable shared memory plus the live-region table."""

    def __init__(self, module: Module) -> None:
        self.cells: Dict[int, int] = {}
        self._region_bases: List[int] = []
        self._region_sizes: Dict[int, int] = {}
        self.global_addr: Dict[str, int] = {}
        self._bump = NULL_GUARD
        #: Cached :meth:`fingerprint` (None when stale): cleared by every
        #: mutation — ``write``, ``pagealloc``, ``pagefree`` — and carried
        #: through snapshot/restore.
        self._fp: Optional[Tuple] = None
        #: True while ``cells`` and the region table are shared with a
        #: snapshot: the next mutation copies them first (copy-on-write).
        self._shared = False
        self._layout_globals(module)

    # ------------------------------------------------------------------
    # Layout

    def _layout_globals(self, module: Module) -> None:
        for var in module.globals.values():
            base = self._reserve(var.size)
            self.global_addr[var.name] = base
            for offset, value in enumerate(var.init):
                self.cells[base + offset] = value

    def _reserve(self, size: int) -> int:
        base = self._bump
        if base % 2:
            base += 1
        self._bump = base + size
        self._add_region(base, size)
        return base

    def _add_region(self, base: int, size: int) -> None:
        insort(self._region_bases, base)
        self._region_sizes[base] = size

    # ------------------------------------------------------------------
    # Allocation intrinsics

    def pagealloc(self, size: int) -> int:
        """Allocate ``size`` fresh zeroed cells; return the 2-aligned base."""
        if size <= 0:
            raise MemorySafetyViolation("pagealloc of non-positive size %d" % size)
        if self._shared:
            self._unshare()
        base = self._reserve(size)
        for offset in range(size):
            self.cells[base + offset] = 0
        self._fp = None
        return base

    def pagefree(self, addr: int) -> None:
        """Release the region whose base is ``addr``.

        The region's cells become invalid immediately; buffered stores into
        it are *not* flushed and will violate when they are.
        """
        if addr not in self._region_sizes:
            raise MemorySafetyViolation(
                "pagefree of %d which is not a live region base" % addr)
        if self._shared:
            self._unshare()
        del self._region_sizes[addr]
        pos = bisect_left(self._region_bases, addr)
        del self._region_bases[pos]
        self._fp = None

    # ------------------------------------------------------------------
    # Safety checking

    def is_valid(self, addr: int) -> bool:
        """True if ``addr`` falls inside some live region."""
        if addr < NULL_GUARD:
            return False
        pos = bisect_right(self._region_bases, addr) - 1
        if pos < 0:
            return False
        base = self._region_bases[pos]
        return addr < base + self._region_sizes[base]

    def check(self, addr: int, what: str, tid: Optional[int] = None,
              label: Optional[int] = None) -> None:
        """Raise :class:`MemorySafetyViolation` if ``addr`` is invalid.

        :meth:`is_valid`, inlined: this runs on every load, CAS and flush.
        """
        if addr >= NULL_GUARD:
            bases = self._region_bases
            pos = bisect_right(bases, addr) - 1
            if pos >= 0:
                base = bases[pos]
                if addr < base + self._region_sizes[base]:
                    return
        kind = "NULL dereference" if addr < NULL_GUARD else "out-of-bounds/freed access"
        raise MemorySafetyViolation(
            "%s: %s at address %d (label L%s, thread %s)"
            % (kind, what, addr, label, tid),
            tid=tid, label=label)

    # ------------------------------------------------------------------
    # Access (validity already checked by callers where required)

    def read(self, addr: int) -> int:
        return self.cells.get(addr, 0)

    def write(self, addr: int, value: int) -> None:
        if self._shared:
            self._unshare()
        self.cells[addr] = value
        self._fp = None

    # ------------------------------------------------------------------
    # Snapshot/restore (schedule exploration)

    def snapshot(self) -> Tuple:
        """Capture cells, the live-region table, the bump pointer, and
        (last) the cached fingerprint.

        The containers are handed out, not copied, and marked shared:
        the next mutation on either side copies them first.
        ``global_addr`` is fixed at load time and shared outright.
        """
        self._shared = True
        return (self.cells, self._region_bases, self._region_sizes,
                self._bump, self._fp)

    def restore(self, state: Tuple) -> None:
        """Reinstate a snapshot.  The snapshot's containers are adopted
        as shared, so it stays valid for any number of restores."""
        (self.cells, self._region_bases, self._region_sizes,
         self._bump, self._fp) = state
        self._shared = True

    def _unshare(self) -> None:
        """Take private copies of the shared containers (once per
        snapshot or restore, before the first mutation)."""
        self.cells = dict(self.cells)
        self._region_bases = list(self._region_bases)
        self._region_sizes = dict(self._region_sizes)
        self._shared = False

    def fingerprint(self) -> Tuple:
        """Canonical hashable encoding of the memory state (state dedup),
        cached until the next mutation."""
        fp = self._fp
        if fp is None:
            fp = self._fp = (tuple(sorted(self.cells.items())),
                             tuple(self._region_bases), self._bump)
        return fp

    def live_regions(self) -> Iterable[Tuple[int, int]]:
        return [(base, self._region_sizes[base]) for base in self._region_bases]

"""Store-buffer models for SC, TSO and PSO (paper Semantics 1 + 2).

The models own the per-thread write buffers; committed values land in
shared memory through a ``commit`` callback supplied by the VM (which is
also where memory-safety checks on flushed addresses happen, matching the
paper's rule that a flush into freed memory is a safety violation).

Buffered entries carry the issuing instruction's label, which doubles as
the paper's instrumented auxiliary buffer ``B-flat``: whenever a shared
access at label ``k`` finds pending stores to *other* variables in its own
thread, it reports the predicates ``[l_pending < k]`` to the attached
:class:`~repro.memory.predicates.PredicateSink`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..ir.instructions import FenceKind
from .predicates import PredicateSink

#: commit(tid, addr, value, label) — write a flushed value to shared memory.
CommitFn = Callable[[int, int, int, int], None]

#: Shared empty list for the no-pending-stores fast path (allocation-free
#: common case).  Callers treat ``pending_addrs``/``pending_tids`` results
#: as read-only.
_EMPTY_LIST: List[int] = []


class StoreBufferModel:
    """Abstract base for the three memory models."""

    name = "abstract"

    def __init__(self) -> None:
        self._commit: Optional[CommitFn] = None
        self.sink: Optional[PredicateSink] = None
        #: Deepest any single thread's buffer got this execution (the
        #: store-buffer pressure metric; 0 under SC).
        self.depth_hwm = 0
        #: Cached :meth:`fingerprint` (None when stale).  Every buffer
        #: mutation goes through ``_note_push``/``_note_pop``/``reset``,
        #: which clear it, so subclasses stay consistent for free.
        self._fp = None
        #: The explorer's flush branch options for the current buffers
        #: (None when stale): cleared together with ``_fp`` and carried
        #: through snapshot/restore the same way.
        self.flush_options = None
        #: The buffered stores, keyed by tid; the value's shape is the
        #: subclass's.  Buffers are immutable tuples, replaced (never
        #: mutated) by every write and flush, so a snapshot copies this
        #: one dict.  Every write/flush, the broken-model subclasses'
        #: included, deletes an emptied buffer: the keys are exactly the
        #: threads with buffered stores, which schedulers read instead
        #: of rescanning the buffers.
        self._buffers: dict = {}

    def attach(self, commit: CommitFn,
               sink: Optional[PredicateSink] = None) -> None:
        """Connect the model to shared memory and (optionally) a sink."""
        self._commit = commit
        self.sink = sink

    # -- interface used by the VM -------------------------------------

    def read(self, tid: int, addr: int, label: int) -> Tuple[bool, int]:
        """Attempt a buffered read.

        Returns ``(hit, value)``; on a miss the VM reads shared memory.
        Also reports bypass predicates for the access.
        """
        raise NotImplementedError

    def write(self, tid: int, addr: int, value: int, label: int) -> None:
        """Issue a store (buffered under TSO/PSO, immediate under SC)."""
        raise NotImplementedError

    def pre_cas(self, tid: int, addr: int, label: int) -> None:
        """Drain whatever the model's CAS rule requires before the atomic
        update executes, reporting bypass predicates first."""
        raise NotImplementedError

    def fence(self, tid: int, kind: FenceKind) -> None:
        """Execute a fence: drain per the model's ordering guarantees."""
        raise NotImplementedError

    def has_pending(self, tid: int) -> bool:
        """True if the thread has any buffered stores."""
        return tid in self._buffers

    def pending_addrs(self, tid: int) -> List[int]:
        """Addresses with buffered stores (PSO: buffer keys; TSO: queue)."""
        raise NotImplementedError

    def pending_count(self, tid: int) -> int:
        raise NotImplementedError

    def pending_tids(self) -> List[int]:
        """Threads with buffered stores, ascending."""
        if not self._buffers:
            return _EMPTY_LIST
        return sorted(self._buffers)

    def head_addr(self, tid: int) -> Optional[int]:
        """Address the next ``flush_one(tid)`` would commit (None if no
        buffered store) — the flush's concrete footprint for POR."""
        raise NotImplementedError

    def flush_one(self, tid: int, addr: Optional[int] = None) -> bool:
        """Commit the oldest buffered store (of ``addr``, if given).

        Returns True if something was flushed.
        """
        raise NotImplementedError

    def drain(self, tid: int) -> None:
        """Commit every buffered store of the thread, oldest first.

        An emptied buffer is deleted, so the loop stops without a
        ``flush_one`` call that finds nothing to flush."""
        while tid in self._buffers:
            self.flush_one(tid)

    def reset(self) -> None:
        """Discard all buffers (start of a new execution)."""
        self._buffers = {}
        self.depth_hwm = 0
        self._fp = self.flush_options = None

    # -- snapshot/restore (schedule exploration) -----------------------
    #
    # ``snapshot()`` captures the model's complete mutable state;
    # ``restore()`` reinstates it.  One snapshot may be restored many
    # times (fork-and-backtrack DFS), so restore copies the container
    # it adopts.  The buffers themselves are immutable, so both copy one
    # dict, and a thread's buffer depth is read off its buffer, so there
    # is no other container to copy.  ``fingerprint()`` is a canonical
    # hashable encoding of the buffers for state dedup; the snapshot
    # carries its cached value and the cached flush options (the last
    # two elements) along.

    def snapshot(self):
        return (self.depth_hwm, dict(self._buffers), self._fp,
                self.flush_options)

    def restore(self, state) -> None:
        self.depth_hwm = state[0]
        self._buffers = dict(state[1])
        self._fp = state[2]
        self.flush_options = state[3]

    def fingerprint(self):
        """Canonical hashable encoding of all buffered stores, cached
        until the next buffer mutation."""
        fp = self._fp
        if fp is None:
            fp = self._fp = self._fingerprint()
        return fp

    def _fingerprint(self):
        return ()

    # -- helpers -------------------------------------------------------

    def _note_push(self, tid: int) -> None:
        """A store entered the thread's buffer: bump the depth HWM and
        drop the caches.  Called after the buffer grew, so the depth is
        read off the buffer itself.  This lives here (not in the
        concrete write/flush methods) so subclasses overriding those —
        the broken-model oracle tests do — keep it consistent for free."""
        self._fp = self.flush_options = None
        depth = self.pending_count(tid)
        if depth > self.depth_hwm:
            self.depth_hwm = depth

    def _note_pop(self, tid: int) -> None:
        """A store left the thread's buffer: drop the caches."""
        self._fp = self.flush_options = None

    def _do_commit(self, tid: int, addr: int, value: int, label: int) -> None:
        if self._commit is None:
            raise RuntimeError("memory model not attached to shared memory")
        self._commit(tid, addr, value, label)


class SCModel(StoreBufferModel):
    """Sequentially consistent memory: no buffering at all.

    Running the engine under SC is how the paper checks algorithmic
    correctness independent of memory-model effects (e.g. discovering that
    Cilk's THE queue is not linearizable even without reordering).
    """

    name = "sc"

    def read(self, tid, addr, label):
        return (False, 0)

    def write(self, tid, addr, value, label):
        self._do_commit(tid, addr, value, label)

    def pre_cas(self, tid, addr, label):
        pass

    def fence(self, tid, kind):
        pass

    def pending_addrs(self, tid):
        return _EMPTY_LIST

    def pending_count(self, tid):
        return 0

    def head_addr(self, tid):
        return None

    def flush_one(self, tid, addr=None):
        return False


class TSOModel(StoreBufferModel):
    """Total Store Order: one FIFO buffer of (addr, value, label) per thread.

    Loads may bypass earlier stores to *different* addresses; loads of a
    buffered address forward the newest buffered value.  Store-store order
    is preserved (single FIFO), so only store→load predicates arise and a
    ``ST_ST`` fence is a no-op.

    ``_buffers`` maps a pending tid to its FIFO as a tuple, oldest first.
    """

    name = "tso"

    _buffers: Dict[int, Tuple[Tuple[int, int, int], ...]]

    def read(self, tid, addr, label):
        buf = self._buffers.get(tid)
        if not buf:
            return (False, 0)
        if self.sink is not None:
            for (pending_addr, _value, pending_label) in buf:
                if pending_addr != addr:
                    self.sink.add(pending_label, label, FenceKind.ST_LD)
        # Store forwarding: newest buffered value for this address wins.
        for (pending_addr, value, _pl) in reversed(buf):
            if pending_addr == addr:
                return (True, value)
        return (False, 0)

    def write(self, tid, addr, value, label):
        # TSO never reorders store-store: no predicates on a store.
        buffers = self._buffers
        buffers[tid] = buffers.get(tid, ()) + ((addr, value, label),)
        self._note_push(tid)

    def pre_cas(self, tid, addr, label):
        # x86 LOCK'd operations are full barriers: drain everything.  With
        # an empty buffer no bypass is possible, hence no predicates.
        self.drain(tid)

    def fence(self, tid, kind):
        if kind is FenceKind.ST_ST:
            return  # TSO already orders store-store.
        self.drain(tid)

    def pending_addrs(self, tid):
        buf = self._buffers.get(tid)
        if not buf:
            return _EMPTY_LIST
        return [entry[0] for entry in buf]

    def pending_count(self, tid):
        buf = self._buffers.get(tid)
        return len(buf) if buf else 0

    def head_addr(self, tid):
        buf = self._buffers.get(tid)
        return buf[0][0] if buf else None

    def flush_one(self, tid, addr=None):
        buf = self._buffers.get(tid)
        if not buf:
            return False
        # TSO flushes strictly in FIFO order; a requested addr that is not
        # at the head cannot be flushed out of order.
        if addr is not None and buf[0][0] != addr:
            return False
        if len(buf) > 1:
            self._buffers[tid] = buf[1:]
        else:
            del self._buffers[tid]
        self._note_pop(tid)
        pending_addr, value, label = buf[0]
        self._do_commit(tid, pending_addr, value, label)
        return True

    def _fingerprint(self):
        return tuple(sorted(self._buffers.items()))


class PSOModel(StoreBufferModel):
    """Partial Store Order: one FIFO buffer per (thread, address).

    Stores to different addresses may be committed in any relative order,
    so both store→load and store→store bypasses occur, and predicates of
    both kinds are generated (paper Semantics 2).

    ``_buffers`` maps a pending tid to ``{addr: FIFO}``, each FIFO a
    tuple of (value, label), oldest first.  A snapshot shares the inner
    dicts, so they are replaced, never mutated.
    """

    name = "pso"

    _buffers: Dict[int, Dict[int, Tuple[Tuple[int, int], ...]]]

    def _report_bypasses(self, tid: int, addr: int, label: int,
                         kind: FenceKind) -> None:
        if self.sink is None:
            return
        bufs = self._buffers.get(tid)
        if not bufs:
            return
        for other_addr, entries in bufs.items():
            if other_addr == addr:
                continue
            for (_value, pending_label) in entries:
                self.sink.add(pending_label, label, kind)

    def read(self, tid, addr, label):
        bufs = self._buffers.get(tid)
        if not bufs:
            return (False, 0)
        self._report_bypasses(tid, addr, label, FenceKind.ST_LD)
        entries = bufs.get(addr)
        if entries:
            return (True, entries[-1][0])
        return (False, 0)

    def write(self, tid, addr, value, label):
        bufs = self._buffers.get(tid)
        if bufs:
            self._report_bypasses(tid, addr, label, FenceKind.ST_ST)
            bufs = dict(bufs)
            bufs[addr] = bufs.get(addr, ()) + ((value, label),)
        else:
            bufs = {addr: ((value, label),)}
        self._buffers[tid] = bufs
        self._note_push(tid)

    def pre_cas(self, tid, addr, label):
        # The paper's CAS rule requires only B(x) = empty under PSO; other
        # variables' buffers stay pending — and are reported as bypassed.
        self._report_bypasses(tid, addr, label, FenceKind.FULL)
        self.drain_addr(tid, addr)

    def fence(self, tid, kind):
        # The paper's FENCE rule demands all of the thread's buffers empty
        # regardless of flavour; TSO-only distinctions don't apply here.
        self.drain(tid)

    def drain_addr(self, tid: int, addr: int) -> None:
        while self.flush_one(tid, addr):
            pass

    def pending_addrs(self, tid):
        bufs = self._buffers.get(tid)
        if not bufs:
            return _EMPTY_LIST
        return sorted(bufs)

    def pending_count(self, tid):
        bufs = self._buffers.get(tid)
        if not bufs:
            return 0
        return sum(map(len, bufs.values()))

    def head_addr(self, tid):
        bufs = self._buffers.get(tid)
        return min(bufs) if bufs else None

    def flush_one(self, tid, addr=None):
        bufs = self._buffers.get(tid)
        if not bufs:
            return False
        if addr is None:
            addr = min(bufs)  # deterministic pick for drain()
        entries = bufs.get(addr)
        if not entries:
            return False
        bufs = dict(bufs)
        if len(entries) > 1:
            bufs[addr] = entries[1:]
        else:
            del bufs[addr]
        if bufs:
            self._buffers[tid] = bufs
        else:
            del self._buffers[tid]
        self._note_pop(tid)
        value, label = entries[0]
        self._do_commit(tid, addr, value, label)
        return True

    def _fingerprint(self):
        return tuple(sorted((tid, tuple(sorted(bufs.items())))
                            for tid, bufs in self._buffers.items()))


_MODELS = {"sc": SCModel, "tso": TSOModel, "pso": PSOModel}


def make_model(name: str) -> StoreBufferModel:
    """Instantiate a memory model by name ("sc", "tso" or "pso")."""
    try:
        return _MODELS[name.lower()]()
    except KeyError:
        raise ValueError("unknown memory model %r (want sc/tso/pso)"
                         % (name,)) from None

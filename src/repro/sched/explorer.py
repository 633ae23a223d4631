"""Exhaustive schedule exploration: a snapshot DFS with partial-order
reduction.

The random flush-delaying scheduler samples the schedule space; this
module *enumerates* it.  A schedule is a sequence of choices, each either
"step thread t" or "flush one entry of (t, addr)".  The explorer walks the
choice tree by *fork-and-backtrack*: at each decision point with more
than one live branch it captures a :class:`~repro.vm.interp.VMSnapshot`,
executes the first branch in place, and restores the snapshot for each
sibling — one VM step per tree edge, where a stateless replay DFS
re-executes the program from scratch for every path.  That replay DFS
survives as the test-side reference oracle
(``tests/reference/replay_explore.py``).

On top of the incremental walk it layers three sound reductions:

* **Sleep sets** (Godefroid).  After a branch ``c`` is fully explored at a
  node, every sibling subtree carries ``c`` in its *sleep set* for as long
  as only actions independent of ``c`` execute; a slept action is never
  branched on, because the interleaving it would start is a commuted copy
  of one already explored.  Independence comes from action *footprints*
  (read/write sets of addresses and of threads' done cells):
  thread-local steps, plain calls and returns, buffered stores (which
  touch only the issuing thread's own buffer), and flushes/accesses of
  disjoint addresses all commute.  A thread's final ``ret`` writes only
  its own done cell (its status and result), which only a join on the
  thread reads.  Sleep sets alone still visit every reachable state, so
  outcome and violation sets are preserved exactly.
  At both sleep levels a plain call, a return and a buffered store
  (TSO/PSO) are never branch points either: they run in their thread's
  eager local burst, like a register op.  A call or an inner return
  touches only its own thread's frames, and a store appends to the tail
  of its own thread's FIFO buffer, so each commutes with every other
  action, cannot be disabled and enables or disables nothing.  A final
  return writes only its thread's done cell, and the only action that
  reads it — a join on the thread — is not an option before the return
  has run.  Each is therefore a singleton persistent set, and running
  it at once keeps every terminal state and every violation.  (This
  holds because ``explore`` records no operations: a call into a
  recorded operation would be global.)  Nor is a join on an
  unfinished thread an option there: the step would only block the
  joiner, so the joiner waits until the target finishes and then joins
  it in one step, which reads the target's done cell and writes every
  address the target's buffers hold (the join drains them).
* **State caching**.  Distinct interleavings frequently converge on the
  same state (same thread frames, memory, and buffers).  A canonical hash
  of the state dedupes re-exploration, with Godefroid, Holzmann and
  Pirottin's stored sleep sets ("State-space caching revisited"): each
  cached state keeps the intersection ``H`` of the sleep sets it was
  visited with, and every option outside ``H`` has already been taken
  from it.  A revisit with sleep set ``Q`` is a hit when ``H <= Q``;
  otherwise it branches only on ``H - Q``, the options asleep at every
  earlier visit and awake now, and ``H`` becomes ``H & Q``.  So no edge
  out of a closed cached state runs twice.  A revisit of a state still
  on the DFS stack branches on every awake option instead, and a hit
  on such a state closes a cycle (a loop whose state repeats): the
  continuations past it are never explored, so such a hit is counted in
  ``ExploreStats.cycles`` and the result is not ``exact``.
* **Static persistent singletons** (Godefroid, LNCS 1032, ch. 4).  At
  both sleep levels, before the sleep-set and cache logic, a decision
  point is cut to one option when that option is a persistent set on
  its own: a load of ``a`` that no other live thread's remaining code
  may write, or an SC store or a flush of ``a`` that no such code may
  read or write, with ``a`` in no other thread's buffer (and, for a
  flush, no page allocation or free left in its own thread's code).
  A fence, a CAS, a fork and a join on a finished thread qualify as
  their buffer drain followed by the action itself: each drained
  address must pass the flush check, a CAS's address the store check,
  and a fork also needs every other live thread's remaining code to be
  free of forks and joins.  Remaining code comes from static
  may-access tables (:func:`_access_tables`), built only for a module
  with no loop and no recursion.  Its state graph is acyclic, so no
  cycle proviso is needed; every other module keeps the search it had
  without the rule.  ``ExploreStats.persistent`` counts the options
  dropped.  Sleep sets and the cache no longer visit every reachable
  state once decision points are cut, but they still reach every
  outcome and violation.

``reduction`` selects the level: ``"none"`` (exact mirror of the replay
tree, for differential validation), ``"sleep"``, or ``"sleep+cache"``
(default).  Exploration is exact but exponential — use it on litmus tests
and toy programs, not on the Table-2 benchmarks.  The search honours a
path budget and reports whether it completed: it is complete when the
tree has at most ``max_paths`` leaves.

The state key leaves out the step count, so two paths of different
length that reach one state share a cache entry, even when
``max_steps`` lies between their two step counts.  That cannot make an
``exact`` result wrong.  ``ExploreStats.step_limited`` counts the
leaves the step limit cut (they are also counted in ``paths``), and
``exact`` requires it to be 0:

* If ``step_limited == 0``, the step limit cut no path of the search,
  so the subtree below every cached state was explored completely.  A
  hit on that state from a longer path stands for that same subtree: a
  state's continuations do not depend on how it was reached, and their
  first exploration ran to the end.  The outcome set is then the
  program's, even where the longer path alone would have run into the
  step limit.
* If a subtree was cut, ``step_limited > 0`` and the result is already
  not ``exact``.

A result with a cache-closed cycle is not ``exact`` either.
"""

from __future__ import annotations

import pickle
from typing import (Callable, Dict, FrozenSet, List, Optional, Set, Tuple,
                    Union)

from ..ir import instructions as ins
from ..ir.cfg import CFG
from ..ir.module import Module
from ..ir.operands import Const, Sym
from ..memory.models import StoreBufferModel, make_model
from ..obs.recorder import NULL_RECORDER
from ..vm.compile import make_vm
from ..vm.driver import thread_results
from ..vm.errors import SpecViolationError, StepLimitExceeded
from ..vm.interp import (LOCAL_OPS_ASSERT, LOCAL_OPS_CALL, LOCAL_OPS_STORE,
                         VM, VMSnapshot)
from ..vm.state import Thread, ThreadStatus

#: Builds a fresh memory-model instance for one exploration.
ModelFactory = Callable[[], StoreBufferModel]

#: Outcome extractor: maps a finished VM to a hashable outcome.
OutcomeFn = Callable[[VM], Tuple]

#: Per-call budget handed to ``VM.run_local`` while advancing local
#: instructions (a sweep is repeated while some thread used its whole
#: burst, so the value only bounds work per call, not total local
#: progress).
_LOCAL_BURST = 4096

_FINISHED = ThreadStatus.FINISHED

#: Supported reduction levels, weakest first.
REDUCTIONS = ("none", "sleep", "sleep+cache")

#: A footprint cell: a shared-memory address, or a thread's ``("done",
#: tid)`` cell (its status and result).
Cell = Union[int, Tuple[str, int]]

#: An action footprint: (is_global, reads, writes).  Global actions
#: (fences, CAS, fork, allocation, calls into recorded operations, a
#: blocked join's completion — anything whose commutativity we do not
#: prove) conflict with everything.
Footprint = Tuple[bool, FrozenSet[Cell], FrozenSet[Cell]]

_EMPTY: FrozenSet[Cell] = frozenset()
_GLOBAL_FP: Footprint = (True, _EMPTY, _EMPTY)
#: An action that touches only its own thread: a plain call or inner
#: return (the thread's frames), or a buffered store, which appends to
#: the issuing thread's own FIFO buffer, invisible to every other thread
#: until a *flush* commits it.  It commutes with everything except that
#: thread's own actions (which are never candidates for each other's
#: sleep sets anyway).  The sleep levels run them eagerly
#: (:func:`_advance_local`) unless the VM records operations, so only
#: ``none`` and such a VM (``LOCAL_OPS_ASSERT``) compute this footprint.
_LOCAL_FP: Footprint = (False, _EMPTY, _EMPTY)
#: A join whose target has not finished: stepping it would only block
#: the joiner.  Only ``none`` branches on it; at the sleep levels the
#: joiner waits until the target finishes (:meth:`_Search._visit`
#: drops the option, telling this object apart by identity).
_WAIT_FP: Footprint = (True, _EMPTY, _EMPTY)


class ExplorationResult:
    """Outcome set of an exhaustive exploration.

    ``stats`` carries the :class:`ExploreStats` reduction counters; the
    test-side replay reference leaves it ``None``.  ``complete`` means
    the path budget was not exhausted; :attr:`exact` additionally
    requires that no leaf was cut by the step limit and that the state
    cache closed no cycle.
    """

    def __init__(self, outcomes: Set[Tuple], paths: int,
                 complete: bool, violations: Set[str],
                 stats=None) -> None:
        self.outcomes = outcomes
        self.paths = paths
        self.complete = complete
        self.violations = violations
        self.stats = stats

    @property
    def exact(self) -> bool:
        """True iff the outcome set is exact, not a lower bound: the
        search completed, the step limit cut no leaf and no cache hit
        closed a cycle."""
        stats = self.stats
        return (self.complete and stats is not None
                and stats.step_limited == 0 and stats.cycles == 0)

    def __repr__(self) -> str:
        return "<ExplorationResult %d outcomes, %d paths%s, %d violations>" \
            % (len(self.outcomes), self.paths,
               "" if self.complete else " (budget hit)",
               len(self.violations))


class ExploreStats:
    """Reduction and snapshot counters for one exploration."""

    __slots__ = ("paths", "pruned", "cache_hits", "cache_states",
                 "snapshots", "restores", "snapshot_bytes", "step_limited",
                 "cycles", "persistent")

    def __init__(self) -> None:
        self.paths = 0            # leaves reached (terminal/violation/limit)
        self.pruned = 0           # branches skipped because slept
        self.cache_hits = 0       # nodes skipped as already-explored states
        self.cache_states = 0     # distinct states entered into the cache
        self.snapshots = 0
        self.restores = 0
        self.snapshot_bytes = 0   # pickled execution state of 1st snapshot
        self.step_limited = 0     # leaves cut by StepLimitExceeded (in paths)
        self.cycles = 0           # cache hits on a state on the DFS stack
        self.persistent = 0       # options dropped by persistent singletons

    @property
    def estimated_unreduced(self) -> int:
        """Lower bound on the replay-baseline path count: every pruned
        branch, cache hit and option a persistent singleton dropped
        stands for at least one whole subtree."""
        return self.paths + self.pruned + self.cache_hits + self.persistent

    def as_dict(self) -> dict:
        return {
            "paths": self.paths,
            "pruned_branches": self.pruned,
            "cache_hits": self.cache_hits,
            "cache_states": self.cache_states,
            "snapshots": self.snapshots,
            "restores": self.restores,
            "snapshot_bytes": self.snapshot_bytes,
            "step_limited": self.step_limited,
            "cycles": self.cycles,
            "persistent": self.persistent,
            "estimated_unreduced": self.estimated_unreduced,
        }

    def __repr__(self) -> str:
        return ("<ExploreStats paths=%d pruned=%d cache_hits=%d "
                "persistent=%d snapshots=%d>"
                % (self.paths, self.pruned, self.cache_hits,
                   self.persistent, self.snapshots))


def _advance_local(vm: VM, local: frozenset) -> List[int]:
    """Eagerly run every thread's instructions of class *local*.

    *local* is ``LOCAL_OPS_ASSERT`` (register ops, branches, asserts) at
    ``reduction="none"``; at the sleep levels it is ``LOCAL_OPS_CALL``,
    which adds plain calls and returns, or, under a buffering model,
    ``LOCAL_OPS_STORE``, which adds buffered stores too.  Each such step
    is a singleton persistent set: it commutes with every other
    thread's actions, or (a final return) conflicts only with a join on
    its thread, which cannot be an option before the return has run.
    Executing them without branching preserves the reachable outcome
    set while collapsing the search tree (the explorer's partial-order
    reduction).
    Each thread's local run is executed to completion before moving to
    the next thread (rather than one op per thread round-robin) — the
    commutativity that justifies the reduction also makes the two orders
    reach the same state at every decision point, and depth-first runs
    let the compiled VM use superinstructions.

    One sweep suffices: a local op cannot enable or disable another
    thread or change what another thread runs next, so a thread whose
    burst stopped short stays stopped.  A final return can enable only
    a thread waiting to join it, whose next instruction is that join,
    which is never local.  Only a burst that used its whole budget may
    have more to run, and then the sweep repeats.  Every thread that ran
    clears its cached state-key component, step option and remaining-code
    access sets.  A thread
    whose step option is cached has not run since :func:`_options` saw
    it at a non-local op, so it is skipped.

    Returns the enabled tids after the sweep: a final return removes
    its thread.
    """
    threads = vm.threads
    again = True
    while again:
        again = False
        for tid in vm.enabled_tids():
            if threads[tid].step_option is not None:
                continue
            executed = vm.run_local(tid, _LOCAL_BURST, local)
            if executed:
                # The thread the VM owns now: run_local may have cloned it.
                thread = threads[tid]
                thread.key = thread.step_option = thread.access = None
                if executed == _LOCAL_BURST:
                    again = True
    return vm.enabled_tids()


# ----------------------------------------------------------------------
# Footprints and independence

def _step_footprint(vm: VM, thread: Thread) -> Optional[Footprint]:
    """The shared-state footprint of an enabled thread's next step, or
    None for a join, whose footprint depends on its target's state and
    is computed afresh at every visit (:func:`_join_option`)."""
    if thread.status is not ThreadStatus.RUNNABLE:
        # Blocked-join completion (reachable at reduction="none" only):
        # drains the target's buffers and changes scheduling state.
        return _GLOBAL_FP
    frame = thread.frames[-1]
    instr = frame.fn.body[frame.ip]
    cls = instr.__class__
    if cls is ins.Load:
        addr = vm._value(instr.addr, frame)
        return (False, frozenset((addr,)), _EMPTY)
    if cls is ins.Store:
        if vm.model.name == "sc":
            # SC commits immediately: a real shared write.
            addr = vm._value(instr.addr, frame)
            return (False, _EMPTY, frozenset((addr,)))
        return _LOCAL_FP  # an option at "none" or if vm.operations
    if cls is ins.Ret:
        if frame.op_index is not None:
            return _GLOBAL_FP  # completes a recorded operation
        if len(thread.frames) == 1:
            # Finishes the thread: writes its status and result, which
            # only a join on it reads.  Its buffer still flushes.  An
            # option at "none", and at the sleep levels when the VM
            # records operations (else the local burst runs it).
            return (False, _EMPTY, _done_cell(thread.tid))
        return _LOCAL_FP
    if cls is ins.Call:
        return _GLOBAL_FP if instr.fn in vm.operations else _LOCAL_FP
    if cls is ins.Join:
        return None
    return _GLOBAL_FP


def _done_cell(tid: int) -> FrozenSet[Cell]:
    """The footprint set holding thread *tid*'s done cell."""
    return frozenset((("done", tid),))


def _join_option(vm: VM, thread: Thread, ident: Tuple) -> Option:
    """The step option of a thread whose next instruction is a join.

    A finished target's join reads the target's done cell and drains its
    buffers, so it writes every address they hold.  The target's status
    and buffers change while the joiner stands still, so the option is
    never cached in ``Thread.step_option``.  An unfinished target's join
    would only block (:data:`_WAIT_FP`); an unknown target's raises when
    stepped.
    """
    frame = thread.frames[-1]
    target_tid = vm._value(frame.fn.body[frame.ip].tid, frame)
    target = vm.threads.get(target_tid)
    if target is None:
        return (ident, ident, _GLOBAL_FP)
    if not target.finished:
        return (ident, ident, _WAIT_FP)
    return (ident, ident, (False, _done_cell(target_tid),
                           frozenset(vm.model.pending_addrs(target_tid))))


#: Flush footprints memoised per address.
_FLUSH_FPS: Dict[int, Footprint] = {}


def _flush_footprint(addr: Optional[int]) -> Footprint:
    if addr is None:
        return _GLOBAL_FP  # unknown target: be conservative
    fp = _FLUSH_FPS.get(addr)
    if fp is None:
        fp = _FLUSH_FPS[addr] = (False, _EMPTY, frozenset((addr,)))
    return fp


def _conflict(a: Footprint, b: Footprint) -> bool:
    """Two actions are *dependent* iff their footprints conflict."""
    if a[0] or b[0]:
        return True
    return bool(a[2] & b[2]) or bool(a[2] & b[1]) or bool(a[1] & b[2])


#: One branch option: (choice-to-apply, stable identity, footprint).
#: The identity is what sleep sets are keyed on; it must stay meaningful
#: while the action is deferred.  ("step", tid) is stable because a slept
#: thread cannot move; a TSO flush is applied as ("flush", tid, None) but
#: identified by its head address, which is pinned while slept (only the
#: thread's own global actions or a join on it could drain it, and those
#: conflict).
Option = Tuple[Tuple, Tuple, Footprint]


def _options(vm: VM, enabled: List[int]) -> List[Option]:
    """Branch options in the replay reference's order: *enabled* tids
    (ascending, as :func:`_advance_local` returns them), then flushes.

    A thread's step option depends only on its own state, so it is
    cached in ``Thread.step_option`` and cleared with ``Thread.key`` —
    except a join's, which depends on its target and is rebuilt at every
    visit (:func:`_join_option`).  The flush options depend only on the
    store buffers, so they are cached in
    ``StoreBufferModel.flush_options``, cleared with the buffer
    fingerprint.
    """
    threads = vm.threads
    opts: List[Option] = []
    for tid in enabled:
        thread = threads[tid]
        opt = thread.step_option
        if opt is None:
            ident = ("step", tid)
            opt = thread.step_option = (ident, ident,
                                        _step_footprint(vm, thread))
        if opt[2] is None:
            opt = _join_option(vm, thread, opt[1])
        opts.append(opt)
    model = vm.model
    flushes = model.flush_options
    if flushes is None:
        flushes = model.flush_options = _flush_options(model)
    opts.extend(flushes)
    return opts


def _flush_options(model: StoreBufferModel) -> Tuple[Option, ...]:
    """One option per flushable buffer, threads ascending."""
    opts: List[Option] = []
    pending = model.pending_tids()
    if model.name == "pso":
        for tid in pending:
            for addr in model.pending_addrs(tid):
                ident = ("flush", tid, addr)
                opts.append((ident, ident, _flush_footprint(addr)))
    else:
        for tid in pending:
            head = model.head_addr(tid)
            opts.append((("flush", tid, None), ("flush", tid, head),
                         _flush_footprint(head)))
    return tuple(opts)


# ----------------------------------------------------------------------
# Static persistent singletons

#: The may-access wildcard: an access through a register, a page
#: allocation or a page free may touch any address.
_ANY = "*"

#: Marks code that may allocate or free a page.  A flush does not
#: commute with a page free of its own thread (a store flushed into a
#: freed region violates), so unlike other accesses this one is not
#: exempt for the flushing thread.
_HEAP = "heap"

#: Marks code that may fork or join.  Forks race for tids, and a join
#: can name a tid before that thread exists, so a fork is refused while
#: another thread's remaining code may do either.
_THREADS = "threads"

#: What some code may access: ``(writes, touches)``, frozensets of
#: addresses (and possibly :data:`_ANY`, :data:`_HEAP` and
#: :data:`_THREADS`); ``touches`` is reads and writes together.
Access = Tuple[FrozenSet, FrozenSet]

_NO_ACCESS: Access = (frozenset(), frozenset())
_HEAP_ACCESS: Access = (frozenset((_ANY,)), frozenset((_ANY, _HEAP)))
_THREADS_ACCESS: Access = (frozenset(), frozenset((_THREADS,)))

#: Static may-access tables: function name -> one :data:`Access` per
#: ``ip``, covering the code reachable from that ``ip`` through
#: branches, calls and forks.
AccessTables = Dict[str, List[Access]]


def _union(a: Access, b: Access) -> Access:
    """*a* and *b* together, reusing either one that covers the other:
    most instructions add nothing to what follows them, so the tables
    share one pair across a run of them."""
    if b[1] <= a[1] and b[0] <= a[0]:
        return a
    if a[1] <= b[1] and a[0] <= b[0]:
        return b
    return (a[0] | b[0], a[1] | b[1])


def _access_tables(vm: VM) -> Optional[AccessTables]:
    """The may-access tables of *vm*'s module, or None when the rule
    must not fire: some function has a CFG back edge, or the call/fork
    graph has a cycle (or names a missing function).

    A load reads its address, a store writes it and a CAS does both; an
    address in a register, ``pagealloc`` and ``pagefree`` count as
    every address (:data:`_ANY`), and the last two also as
    :data:`_HEAP`.  A fork and a join add :data:`_THREADS`.  Fences
    add nothing, and neither do drains: they act as flushes of buffers
    the rule checks directly.  Built
    once per explored module, callees first, each function's blocks in
    post-order, so every successor's entry is ready when it is needed.
    """
    functions = vm.module.functions
    global_addr = vm.memory.global_addr
    tables: AccessTables = {}
    on_path: Set[str] = set()

    def address(operand) -> Union[int, str]:
        if operand.__class__ is Sym:
            return global_addr[operand.name]
        if operand.__class__ is Const:
            return operand.value
        return _ANY

    def build(name: str) -> bool:
        if name in tables:
            return True
        fn = functions.get(name)
        if fn is None or name in on_path:
            return False  # a missing function, or recursion
        cfg = CFG(fn)
        order = cfg.acyclic_post_order()
        if order is None:
            return False  # a loop
        on_path.add(name)
        body = fn.body
        own: List[Access] = []
        for instr in body:
            cls = instr.__class__
            if cls is ins.Load:
                cell = frozenset((address(instr.addr),))
                own.append((_EMPTY, cell))
            elif cls is ins.Store or cls is ins.Cas:
                cell = frozenset((address(instr.addr),))
                own.append((cell, cell))
            elif cls is ins.PageAlloc or cls is ins.PageFree:
                own.append(_HEAP_ACCESS)
            elif cls is ins.Call or cls is ins.Fork:
                if not build(instr.fn):
                    return False
                callee = tables[instr.fn]
                access = callee[0] if callee else _NO_ACCESS
                if cls is ins.Fork:
                    access = _union(access, _THREADS_ACCESS)
                own.append(access)
            elif cls is ins.Join:
                own.append(_THREADS_ACCESS)
            else:
                own.append(_NO_ACCESS)
        on_path.discard(name)
        table: List[Access] = [_NO_ACCESS] * len(body)
        for block in order:
            after = _NO_ACCESS
            for succ in block.successors:
                after = _union(after, table[cfg.blocks[succ].start])
            for ip in range(block.end - 1, block.start - 1, -1):
                after = table[ip] = _union(after, own[ip])
        tables[name] = table
        return True

    for name in functions:
        if not build(name):
            return None
    return tables


def _thread_access(thread: Thread, tables: AccessTables) -> Access:
    """What *thread*'s remaining code may access: the union, over its
    frames, of the tables' entry at each frame's ``ip``.  Cached in
    ``Thread.access`` and cleared with ``Thread.step_option``."""
    access = thread.access
    if access is None:
        access = _NO_ACCESS
        for frame in thread.frames:
            access = _union(access, tables[frame.fn.name][frame.ip])
        thread.access = access
    return access


def _buffer_owners(model: StoreBufferModel) -> Dict[int, int]:
    """Each buffered address -> the tid whose buffer holds it, or -1
    when more than one buffer does."""
    owners: Dict[int, int] = {}
    for tid in model.pending_tids():
        for addr in model.pending_addrs(tid):
            if owners.setdefault(addr, tid) != tid:
                owners[addr] = -1
    return owners


def _persistent_singleton(vm: VM, options: List[Option],
                          tables: AccessTables) -> Optional[Option]:
    """The first of *options* that is a persistent set on its own, or
    None (DESIGN, "Static persistent singletons").

    A candidate is a load of address ``a`` by thread ``t``, a store to
    ``a`` by ``t`` (a branch option under SC only), the flush of ``a``
    from ``t``'s buffer, or a step of ``t`` that drains a buffer before
    it acts: a fence, a CAS on ``a``, a fork, or a join on a finished
    thread ``T``.  It qualifies when no other unfinished thread's
    remaining code may write ``a`` (for a load) or touch it (for the
    rest), and no other thread's buffer holds ``a``; ``t``'s own buffer
    is exempt, since a thread's load commutes with its own flush through
    store forwarding.  A flush also fails when ``t``'s own remaining
    code may allocate or free a page.

    A drain is read as its flushes followed by the action proper, so
    every address it commits must pass the check a flush of it from
    that buffer would, except the heap clause: the draining thread
    cannot move before its own step.  A fence's action touches nothing
    (under TSO an ``ST_ST`` fence drains nothing either), a CAS's is an
    SC store to ``a``, and a join's only reads ``T``'s done cell.  A
    join drains ``T``'s buffer, so ``T``'s buffer is the exempt one and
    the joiner's own is checked.  A fork also fails while another
    unfinished thread's remaining code may fork or join.
    """
    threads = vm.threads
    model = vm.model
    # Built once per visit, when the first candidate needs them: each
    # unfinished thread's remaining-code access, and the buffer owners.
    live = owners = None
    for option in options:
        ident, fp = option[1], option[2]
        tid = ident[1]
        held = tid     # the one buffer that may hold the addresses
        touches = 1    # index into Access: writes (0) or touches (1)
        fork = False
        if ident[0] == "flush":
            if _HEAP in _thread_access(threads[tid], tables)[1]:
                continue
            addrs = (ident[2],)
        else:
            frame = threads[tid].frames[-1]
            instr = frame.fn.body[frame.ip]
            cls = instr.__class__
            if cls is ins.Load:
                addrs, touches = fp[1], 0
            elif cls is ins.Store:
                addrs = fp[2]
            elif cls is ins.Fence:
                if model.name == "tso" and instr.kind is ins.FenceKind.ST_ST:
                    return option
                addrs = model.pending_addrs(tid)
            elif cls is ins.Cas:
                addr = vm._value(instr.addr, frame)
                addrs = ([addr] + model.pending_addrs(tid)
                         if model.name == "tso" else (addr,))
            elif cls is ins.Fork:
                addrs, fork = model.pending_addrs(tid), True
            elif cls is ins.Join and not fp[0]:
                held, addrs = vm._value(instr.tid, frame), fp[2]
            else:
                continue
            if not addrs and not fork:
                return option
        if live is None:
            live = [(other.tid,
                     other.access or _thread_access(other, tables))
                    for other in threads.values()
                    if other.status is not _FINISHED]
        for other, access in live:
            if other == tid:
                continue
            cells = access[touches]
            if fork and _THREADS in cells:
                break
            if addrs and (_ANY in cells or not cells.isdisjoint(addrs)):
                break
        else:
            if owners is None:
                owners = _buffer_owners(model)
            if not owners or all(owners.get(addr, held) == held
                                 for addr in addrs):
                return option
    return None


# ----------------------------------------------------------------------
# State canonicalisation (dedup cache)

def _state_key(vm: VM, thread_ids: Dict[Tuple, int]) -> Tuple:
    """Canonical hashable encoding of the full execution state:
    ``(id_0, ..., id_n, next_tid, memory fingerprint, buffer
    fingerprint)``.

    Deliberately excludes the step/seq counters so interleavings that
    converge on the same state dedupe (see the module docstring on why
    that keeps ``exact`` results exact), and the history (outcome
    extraction for explored programs depends on globals and thread
    results only).

    ``id_i`` is thread *i*'s interned id: *thread_ids*, one dict per
    search, maps each full thread tuple ``(tid, status, join_target,
    result, frames)`` to a small int, so the cache hashes a short tuple
    of ints and a full thread tuple is hashed once, when it is built.
    Each component is cached next to the state it describes — the id in
    ``Thread.key``, memory and buffer fingerprints in their owners — and
    rebuilt only after that state changed, so a DFS edge re-keys one
    thread, or one buffer plus memory.  ``vm.threads`` is in insertion
    order, which is tid order: threads are spawned with ascending tids,
    and neither cloning nor restore reorders the table.
    """
    key = []
    for thread in vm.threads.values():
        ident = thread.key
        if ident is None:
            full = (thread.tid, thread.status.value, thread.join_target,
                    thread.result,
                    tuple([(frame.fn.name, frame.ip,
                            tuple(sorted(frame.regs.items())))
                           for frame in thread.frames]))
            ident = thread_ids.get(full)
            if ident is None:
                ident = thread_ids[full] = len(thread_ids)
            thread.key = ident
        key.append(ident)
    key += (vm._next_tid, vm.memory.fingerprint(), vm.model.fingerprint())
    return tuple(key)


# ----------------------------------------------------------------------
# The DFS core

class _CacheEntry:
    """The cache's record of one state: its stored sleep set, and
    whether a node of that state is still on the DFS stack.

    ``sleep`` is the intersection of every sleep set the state has been
    visited with (Godefroid's stored sleep set).  Once no node of the
    state is open, every option outside it has been executed from the
    state, so a revisit with sleep set ``Q`` need branch only on
    ``sleep - Q``, and is a hit when that is empty.
    """

    __slots__ = ("sleep", "open")

    def __init__(self, slept: FrozenSet[Tuple]) -> None:
        self.sleep = slept
        self.open = False


class _Node:
    """One open interior node of the DFS tree."""

    __slots__ = ("snap", "branch", "index", "sleep", "needs_restore",
                 "entry")

    def __init__(self, snap: Optional[VMSnapshot], branch: List[Option],
                 sleep: Dict[Tuple, Footprint],
                 entry: Optional[_CacheEntry]) -> None:
        self.snap = snap
        self.branch = branch
        self.index = 0
        self.sleep = sleep          # mutated: explored siblings added
        self.needs_restore = False  # first child runs on the live state
        #: The cache entry this node opened (None without a cache, or
        #: when an ancestor holds it); closed when the node is popped.
        self.entry = entry


class _Search:
    """Iterative fork-and-backtrack DFS over one VM's choice tree."""

    def __init__(self, vm: VM, outcome_fn: OutcomeFn, max_paths: int,
                 use_sleep: bool, cache: Optional[Dict[Tuple, _CacheEntry]],
                 stats: ExploreStats, outcomes: Set[Tuple],
                 violations: Set[str]) -> None:
        self.vm = vm
        self.outcome_fn = outcome_fn
        self.max_paths = max_paths
        self.use_sleep = use_sleep
        # The sleep levels run calls and returns in the local burst.
        # That relies on explore() building its VM with no recorded
        # operations: every call is then plain and every frame's
        # op_index is None.  A call into a recorded operation, or its
        # return, is a global action and must branch, so a VM that
        # records operations (only tests build one) keeps the set of
        # reduction="none", which mirrors the replay reference's tree.
        # Under SC a store is a real shared write, so only TSO/PSO run
        # stores eagerly.
        if not use_sleep or vm.operations:
            self.local = LOCAL_OPS_ASSERT
        elif vm.model.name == "sc":
            self.local = LOCAL_OPS_CALL
        else:
            self.local = LOCAL_OPS_STORE
        #: The static may-access tables, or None where persistent
        #: singletons must not fire: at ``none``, for a VM that records
        #: operations (as for the eager set above) and for a module with
        #: a loop or recursion (:func:`_access_tables`).
        self.tables = (_access_tables(vm) if use_sleep and not vm.operations
                       else None)
        self.cache = cache
        self.stats = stats
        self.outcomes = outcomes
        self.violations = violations
        self.stack: List[_Node] = []
        #: Set when a leaf was reached with no path budget left.
        self.exhausted = False
        #: Full thread tuple -> interned id (see :func:`_state_key`).
        #: The ids mean something only inside this search, whose VM and
        #: threads are its own.
        self.thread_ids: Dict[Tuple, int] = {}

    def run(self) -> bool:
        """Explore the tree rooted at the VM's current state.

        Returns True iff the tree was fully explored within budget: it
        has at most ``max_paths`` leaves.
        """
        vm = self.vm
        stats = self.stats
        if not self._root():
            return True
        stack = self.stack
        while stack:
            node = stack[-1]
            if node.index >= len(node.branch):
                stack.pop()
                if node.entry is not None:
                    node.entry.open = False
                continue
            choice, ident, fp = node.branch[node.index]
            node.index += 1
            if node.needs_restore:
                vm.restore(node.snap)
                stats.restores += 1
            node.needs_restore = True
            if self.use_sleep:
                sleep = node.sleep
                if sleep and not fp[0]:
                    child_sleep = {i: f for i, f in sleep.items()
                                   if not _conflict(f, fp)}
                else:
                    # Nothing slept, or a global action, which conflicts
                    # with every slept one.
                    child_sleep = {}
                sleep[ident] = fp
            else:
                child_sleep = node.sleep
            enabled = self._edge(choice)
            if enabled is not None:
                self._visit(child_sleep, enabled)
            if self.exhausted:
                return False
        return True

    def _root(self) -> bool:
        """Advance local steps and open the root node.  Returns False if
        the root itself is a leaf (nothing pushed)."""
        enabled = self._edge(None)
        if enabled is None:
            return False
        self._visit({}, enabled)
        return bool(self.stack)

    def _edge(self, choice: Optional[Tuple]) -> Optional[List[int]]:
        """Execute one choice (None at the root) plus eager local steps.
        Returns the enabled tids at the decision point reached, or None
        when the edge terminates the path (violation or step limit)."""
        vm = self.vm
        try:
            if choice is None:
                pass
            elif choice[0] == "step":
                tid = choice[1]
                vm.step(tid)
                # Cleared after the step, on the thread the VM owns: the
                # thread before the step may be shared with a snapshot,
                # whose cached values must survive.
                thread = vm.threads[tid]
                thread.key = thread.step_option = thread.access = None
            else:
                vm.flush_one(choice[1], choice[2])
            return _advance_local(vm, self.local)
        except SpecViolationError as exc:
            if self._leaf():
                self.violations.add(str(exc))
        except StepLimitExceeded:
            if self._leaf():  # unbounded path (e.g. spin loop): prune
                self.stats.step_limited += 1
        return None

    def _leaf(self) -> bool:
        """Count a leaf reached, or, when ``max_paths`` leaves have been
        counted already, count nothing, mark the search exhausted and
        return False."""
        if self.stats.paths >= self.max_paths:
            self.exhausted = True
            return False
        self.stats.paths += 1
        return True

    def _visit(self, sleep: Dict[Tuple, Footprint],
               enabled: List[int]) -> None:
        """Classify the VM's current state: leaf, pruned, cached, or a
        new interior node pushed onto the stack."""
        vm = self.vm
        stats = self.stats
        options = _options(vm, enabled)
        if self.use_sleep:
            # A join on an unfinished target would only block: the
            # joiner waits until the target finishes, then joins it.
            options = [o for o in options if o[2] is not _WAIT_FP]
        if not options:
            if self._leaf():
                self.outcomes.add(self.outcome_fn(vm))
            return
        if self.tables is not None and len(options) > 1:
            single = _persistent_singleton(vm, options, self.tables)
            if single is not None:
                stats.persistent += len(options) - 1
                options = [single]
        if sleep:
            branch = [o for o in options if o[1] not in sleep]
            stats.pruned += len(options) - len(branch)
            if not branch:
                return  # fully slept: every continuation already covered
        else:
            branch = options
        cache = self.cache
        entry = None
        if cache is not None:
            key = _state_key(vm, self.thread_ids)
            entry = cache.get(key)
            if entry is None:
                entry = cache[key] = _CacheEntry(
                    frozenset(sleep) if sleep else _EMPTY)
                stats.cache_states += 1
            else:
                # Every option outside the stored set H has been taken
                # from this state (or will be, by the open node holding
                # it): only options asleep at every earlier visit and
                # awake now are new.
                stored = entry.sleep
                if stored <= sleep.keys():
                    stats.cache_hits += 1
                    if entry.open:
                        # Not explored yet: the hit closes a cycle.
                        stats.cycles += 1
                    return
                kept = stored.intersection(sleep)
                entry.sleep = kept if kept else _EMPTY
                if not entry.open:
                    branch = [o for o in branch if o[1] in stored]
                    sleep = {i: f for i, f in sleep.items() if i in stored}
            if entry.open:
                entry = None  # an ancestor holds it: branch on all
            else:
                entry.open = True
        snap = None
        if len(branch) > 1:
            snap = vm.snapshot()
            stats.snapshots += 1
            if stats.snapshot_bytes == 0:
                stats.snapshot_bytes = _snapshot_size(snap)
        self.stack.append(_Node(snap, branch, sleep, entry))


def _snapshot_size(snap: VMSnapshot) -> int:
    """Pickled size of the execution state a snapshot holds.

    Functions are named, not pickled (they are shared, not copied), and
    the explorer's caches — the per-frame code cache, the interned
    state-key id in ``Thread.key`` and ``Thread.step_option``, the memory
    fingerprint (last element of its snapshot), and the buffer
    fingerprint and flush options (last two elements of the model's,
    after the depth high-water mark and the buffers) — are left out, so
    the size does not depend on the VM backend.  The history counts
    even when the snapshot shares it with the VM (a VM that records no
    operations), so the size measures the state, not what was copied.
    """
    threads = [(t.tid, t.status.value, t.join_target, t.result,
                [(f.fn.name, f.ip, f.regs, f.ret_dst, f.op_index)
                 for f in t.frames])
               for t in snap.threads.values()]
    payload = (threads, snap.next_tid, snap.steps, snap.seq, snap.flushes,
               snap.history, snap.memory[:-1], snap.model[:-2],
               snap.runnable, snap.blocked_join)
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


# ----------------------------------------------------------------------
# Entry points

def explore(module: Module, model_name: str = "sc", entry: str = "main",
            outcome_fn: OutcomeFn = thread_results,
            max_paths: int = 20_000,
            max_steps: int = 2_000,
            model_factory: Optional[ModelFactory] = None,
            reduction: str = "sleep+cache",
            recorder=NULL_RECORDER) -> ExplorationResult:
    """Enumerate schedules of *module* under *model_name*.

    Outcomes are whatever ``outcome_fn`` extracts from each finished VM
    (default: every thread's return value in tid order).  Paths that
    crash with a spec violation are collected separately in
    ``violations``.  ``reduction="none"`` visits
    the replay reference's tree (identical ``paths`` count) one VM step
    per edge.  The result carries an :class:`ExploreStats` in ``.stats``.

    ``max_paths`` bounds leaves, not work: michael_allocator's first
    client under PSO with ``max_paths=300`` runs about 400 s and enters
    2.4 M states before its 300th leaf.

    ``model_factory`` overrides how the memory model is built (default:
    ``make_model(model_name)``).  The differential fuzzing oracles use it
    to run the explorer against deliberately broken model variants; the
    factory's models must keep the ``name`` of the model family they
    mimic, since flush-choice enumeration keys on it.
    """
    if reduction not in REDUCTIONS:
        raise ValueError("unknown reduction %r (expected one of %s)"
                         % (reduction, ", ".join(REDUCTIONS)))
    stats = ExploreStats()
    outcomes: Set[Tuple] = set()
    violations: Set[str] = set()
    if max_paths <= 0:
        return ExplorationResult(outcomes, 0, False, violations, stats=stats)
    if model_factory is None:
        def model_factory():
            return make_model(model_name)
    vm = make_vm(module, model_factory(), entry=entry, max_steps=max_steps)
    cache = {} if reduction == "sleep+cache" else None
    search = _Search(vm, outcome_fn, max_paths, reduction != "none",
                     cache, stats, outcomes, violations)
    complete = search.run()
    recorder.explore(stats)
    return ExplorationResult(outcomes, stats.paths, complete, violations,
                             stats=stats)

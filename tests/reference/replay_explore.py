"""Replay-based exhaustive exploration: the reference oracle.

A stateless depth-first search over choice sequences: each path re-runs
the program from scratch following a choice prefix, then branches on
every decision point past the prefix (the standard replay-based DFS used
by stateless model checkers).  It is exact, exponential and simple —
O(depth) work per path — which is what makes it the semantic reference
for the snapshot explorer in :mod:`repro.sched.explorer`: the two must
agree on outcomes, violations and completeness at every reduction level,
and path-for-path at ``reduction="none"``.

It keeps its own eager local advance, with the locality the explorer
uses at ``reduction="none"`` (register ops, branches and asserts;
stores, calls and returns stay branch points), so the oracle never
inherits the eager store, call and return reduction it checks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.ir.module import Module
from repro.memory.models import make_model
from repro.sched.explorer import ExplorationResult, ModelFactory, OutcomeFn
from repro.vm.compile import make_vm
from repro.vm.driver import thread_results
from repro.vm.errors import SpecViolationError, StepLimitExceeded
from repro.vm.interp import LOCAL_OPS_ASSERT, VM

#: A choice: ("step", tid) or ("flush", tid, addr_or_None).
Choice = Tuple


def _advance_local(vm: VM) -> None:
    """Run every enabled thread's register ops, branches and asserts
    until no thread has one next."""
    progressed = True
    while progressed:
        progressed = False
        for tid in vm.enabled_tids():
            if vm.run_local(tid, 4096, LOCAL_OPS_ASSERT):
                progressed = True


def _decision_options(vm: VM) -> List[Choice]:
    """All choices available in the current VM state."""
    options: List[Choice] = [("step", tid) for tid in vm.enabled_tids()]
    for tid in vm.tids_with_pending():
        if vm.model.name == "pso":
            for addr in vm.model.pending_addrs(tid):
                options.append(("flush", tid, addr))
        else:
            options.append(("flush", tid, None))
    return options


def _apply(vm: VM, choice: Choice) -> None:
    if choice[0] == "step":
        vm.step(choice[1])
    else:
        vm.flush_one(choice[1], choice[2])


def _run_with_prefix(module: Module, model_factory: ModelFactory,
                     entry: str, prefix: Sequence[int], max_steps: int,
                     outcome_fn: OutcomeFn):
    """Replay *prefix*, then default (first option) to completion.

    Returns (choices_taken, option_counts, outcome, violation).
    """
    vm = make_vm(module, model_factory(), entry=entry, max_steps=max_steps)
    taken: List[int] = []
    counts: List[int] = []
    violation: Optional[str] = None
    outcome: Optional[Tuple] = None
    try:
        while True:
            _advance_local(vm)
            options = _decision_options(vm)
            if not options:
                break
            index = prefix[len(taken)] if len(taken) < len(prefix) else 0
            if index >= len(options):
                # A prefix recorded by a previous run must replay
                # identically (the VM is deterministic given the choice
                # sequence), so an out-of-range index means the replay
                # diverged — silently taking option 0 here would corrupt
                # the search invisibly.  Fail loudly instead.
                raise RuntimeError(
                    "stale replay branch: prefix index %d at depth %d but "
                    "only %d options — deterministic replay diverged"
                    % (index, len(taken), len(options)))
            taken.append(index)
            counts.append(len(options))
            _apply(vm, options[index])
        outcome = outcome_fn(vm)
    except SpecViolationError as exc:
        violation = str(exc)
    except StepLimitExceeded:
        violation = None  # unbounded path (e.g. spin loop): prune
    return taken, counts, outcome, violation


def explore(module: Module, model_name: str = "sc", entry: str = "main",
            outcome_fn: OutcomeFn = thread_results,
            max_paths: int = 20_000,
            max_steps: int = 2_000,
            model_factory: Optional[ModelFactory] = None
            ) -> ExplorationResult:
    """Enumerate schedules of *module* under *model_name* by replay.

    Same arguments and outcome/violation semantics as
    :func:`repro.sched.explorer.explore` (without reductions).
    """
    if model_factory is None:
        def model_factory():
            return make_model(model_name)

    outcomes: Set[Tuple] = set()
    violations: Set[str] = set()
    stack: List[List[int]] = [[]]
    paths = 0
    complete = True

    while stack:
        if paths >= max_paths:
            complete = False
            break
        prefix = stack.pop()
        taken, counts, outcome, violation = _run_with_prefix(
            module, model_factory, entry, prefix, max_steps, outcome_fn)
        paths += 1
        if outcome is not None:
            outcomes.add(outcome)
        if violation is not None:
            violations.add(violation)
        # Branch on every decision point at or past the prefix length.
        for i in range(len(prefix), len(taken)):
            for alternative in range(1, counts[i]):
                stack.append(taken[:i] + [alternative])

    return ExplorationResult(outcomes, paths, complete, violations)

"""Eager calls and returns: at the sleep levels a plain call, an inner
return and a thread's final return run in their thread's local burst,
so none of them is ever a branch point there.

Each is a singleton persistent set.  A call or an inner return touches
only its own thread's frames.  A final return writes only the thread's
done cell, which only a join on the thread reads, and that join is not
an option before the return has run (a join on an unfinished thread
waits).  ``reduction="none"`` mirrors the replay reference's tree and
keeps them as branch points.

* **Where they branch.**  Over the litmus catalog and the corpus, on
  both VM backends, no step option at the sleep levels belongs to a
  thread whose next instruction is a ``Call`` or ``Ret``; at ``none``
  such options still appear.
* **Call-heavy programs.**  Recursion, a call inside a loop, callees
  that load and store, a final return racing a join's drain, and a
  fork from inside a callee, each under SC/TSO/PSO, reach the replay
  reference's outcomes and violations at every reduction level.  The
  fork program keeps a fork from joining the eager set: run eagerly,
  main's fork would drain its store before t1 could load X.
* **Loops through a call.**  A loop whose only non-register steps are
  a call and its return never reaches a decision point at the sleep
  levels; it must still run into the step limit and withhold
  ``exact``.
"""

import glob
import os

import pytest

from repro.ir import instructions as ins
from repro.litmus import LITMUS_TESTS, thread_results
from repro.minic import compile_source
from repro.sched import explorer
from repro.sched.explorer import REDUCTIONS, explore
from tests.reference.replay_explore import explore as explore_replay

MODELS = ["sc", "tso", "pso"]
CORPUS_FILES = sorted(glob.glob(
    os.path.join(os.path.dirname(__file__), "corpus", "*.c")))

#: main loads X at the bottom of a recursion and stores Y after it
#: returns; t1 stores X and loads Y.
RECURSION_SOURCE = """
int X; int Y;
int sum(int n) {
  if (n == 0) { int x = X; return x; }
  return sum(n - 1) + n;
}
int t1() { X = 1; int r = Y; return r; }
int main() {
  int t = fork(t1);
  int s = sum(1);
  Y = 1;
  return s;
}
"""

#: t1 counts to 2 through a plain call inside a loop and publishes the
#: count, which main reads before or after.
CALL_IN_LOOP_SOURCE = """
int X;
int bump(int v) { return v + 1; }
int t1() {
  int i = 0;
  while (i < 2) { i = bump(i); }
  X = i;
  return i;
}
int main() {
  int t = fork(t1);
  int r = X;
  join(t);
  return r;
}
"""

#: Store buffering where every shared access sits in a callee (t1
#: runs ``put_x`` itself, so its final return is the callee's): both
#: loads read 0 only under TSO/PSO.
CALLEE_ACCESS_SOURCE = """
int X; int Y;
int put_x(int v) { X = v; int r = Y; return r; }
int put_y(int v) { Y = v; int r = X; return r; }
int main() {
  int t = fork(put_x, 1);
  int r = put_y(1);
  return r;
}
"""

#: Message passing through callees: the assert fails only under PSO,
#: where the flag's store may reach memory before the data's.
CALLEE_PUBLISH_SOURCE = """
int DATA; int FLAG;
int publish(int v) { DATA = v; FLAG = 1; return v; }
int ready() { int f = FLAG; return f; }
int t1() { return publish(1); }
int main() {
  int t = fork(t1);
  if (ready()) { int d = DATA; assert(d == 1); }
  return 0;
}
"""

#: t1 stores X and finishes through a call whose return is its final
#: step; t2's load of X races with main's join, which drains the store.
FINAL_RET_DRAIN_SOURCE = """
int X;
int set_x(int v) { X = v; return v + 1; }
int t1() { return set_x(1); }
int t2() { int r = X; return r; }
int main() {
  int a = fork(t1);
  int b = fork(t2);
  join(a);
  int r = X;
  join(b);
  return r;
}
"""

#: main forks t2 from inside a callee, after a buffered store that the
#: fork drains (thread creation is a full fence).  t1, forked first,
#: may load X before or after that drain.
FORK_IN_CALLEE_SOURCE = """
int X;
int t1() { int r = X; return r; }
int t2() { return 0; }
int spawn() { X = 1; int t = fork(t2); return t; }
int main() {
  int a = fork(t1);
  int b = spawn();
  join(a);
  join(b);
  return 0;
}
"""

CALL_HEAVY = {
    "recursion": RECURSION_SOURCE,
    "call_in_loop": CALL_IN_LOOP_SOURCE,
    "callee_access": CALLEE_ACCESS_SOURCE,
    "callee_publish": CALLEE_PUBLISH_SOURCE,
    "final_ret_drain": FINAL_RET_DRAIN_SOURCE,
    "fork_in_callee": FORK_IN_CALLEE_SOURCE,
}

#: A loop through a plain call that never ends: every iteration is a
#: new state (the counter grows), and no step in it is a branch point
#: at the sleep levels.
ENDLESS_CALL_LOOP_SOURCE = """
int X;
int bump(int v) { return v + 1; }
int t1() { int i = 0; while (1) { i = bump(i); } return i; }
int main() {
  int t = fork(t1);
  X = 1;
  join(t);
  return 0;
}
"""


def _programs():
    modules = [LITMUS_TESTS[name].compile() for name in sorted(LITMUS_TESTS)]
    for path in CORPUS_FILES:
        with open(path) as handle:
            modules.append(compile_source(handle.read(),
                                          os.path.basename(path)))
    return modules


@pytest.mark.parametrize("compiled", [True, False],
                         ids=["compiled", "interpreted"])
@pytest.mark.parametrize("model", MODELS)
def test_calls_and_returns_branch_only_at_none(monkeypatch, reference_vm,
                                               compiled, model):
    """At every visit, count the step options whose thread's next
    instruction is a ``Call`` or ``Ret``."""
    with reference_vm(not compiled):
        options = explorer._options
        frame_steps = []

        def recording_options(vm, enabled):
            opts = options(vm, enabled)
            frame_steps.extend(
                choice for choice, _ident, _fp in opts
                if choice[0] == "step"
                and isinstance(vm.peek(choice[1]), (ins.Call, ins.Ret)))
            return opts

        monkeypatch.setattr(explorer, "_options", recording_options)
        modules = _programs()
        for reduction in REDUCTIONS:
            del frame_steps[:]
            for module in modules:
                # The unreduced trees of some programs are too large to
                # walk whole; their first paths show that calls branch.
                explore(module, model, outcome_fn=thread_results,
                        reduction=reduction, max_paths=2_000)
            if reduction == "none":
                assert frame_steps
            else:
                assert frame_steps == [], reduction


@pytest.mark.parametrize("name", sorted(CALL_HEAVY))
@pytest.mark.parametrize("model", MODELS)
def test_call_heavy_outcomes_match_replay(name, model):
    module = compile_source(CALL_HEAVY[name], name)
    base = explore_replay(module, model, outcome_fn=thread_results)
    assert base.complete
    for reduction in REDUCTIONS:
        result = explore(module, model, outcome_fn=thread_results,
                         reduction=reduction)
        assert result.exact, reduction
        assert result.outcomes == base.outcomes, reduction
        assert result.violations == base.violations, reduction
        if reduction == "none":
            assert result.paths == base.paths


def test_call_heavy_programs_have_teeth():
    """The programs observe what they should: the callees' store
    buffering is relaxed only under TSO/PSO, the callees' message
    passing violates its assert only under PSO, t2 may read X before
    or after main's join drains it, and t1 may read X before or after
    main's fork from a callee drains it."""
    module = compile_source(CALLEE_ACCESS_SOURCE, "callee_access")
    for model, relaxed in (("sc", False), ("tso", True), ("pso", True)):
        outcomes = explore(module, model, outcome_fn=thread_results).outcomes
        assert ((0, 0) in outcomes) == relaxed, model
    module = compile_source(CALLEE_PUBLISH_SOURCE, "callee_publish")
    for model in MODELS:
        violations = explore(module, model,
                             outcome_fn=thread_results).violations
        assert bool(violations) == (model == "pso"), model
    outcomes = explore(compile_source(FINAL_RET_DRAIN_SOURCE, "drain"),
                       "tso", outcome_fn=thread_results).outcomes
    assert {o[2] for o in outcomes} == {0, 1}
    assert {o[0] for o in outcomes} == {1}
    assert {o[1] for o in outcomes} == {2}
    module = compile_source(FORK_IN_CALLEE_SOURCE, "fork_in_callee")
    for model in MODELS:
        outcomes = explore(module, model, outcome_fn=thread_results).outcomes
        assert {o[1] for o in outcomes} == {0, 1}, model


@pytest.mark.parametrize("reduction", REDUCTIONS)
@pytest.mark.parametrize("model", MODELS)
def test_endless_loop_through_a_call_is_step_limited(model, reduction):
    result = explore(compile_source(ENDLESS_CALL_LOOP_SOURCE, "endless"),
                     model, outcome_fn=thread_results, max_steps=60,
                     reduction=reduction)
    assert result.complete
    assert result.stats.step_limited > 0
    assert not result.exact

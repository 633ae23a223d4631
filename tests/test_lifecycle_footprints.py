"""Thread lifecycle in the explorer: a join waits for its target, and
finishing a thread or joining one conflicts only where it must.

At the sleep levels a thread's final ``ret`` writes only its own done
cell, a join on a finished thread reads that cell and writes every
address the target's buffers hold (the join drains them), and a join
on an unfinished thread is not an option at all: the step would only
block the joiner.  ``reduction="none"`` keeps that blocking step, so it
still walks the replay reference's tree.

* **Joins wait.**  Over the litmus catalog and the corpus, no step the
  sleep levels execute blocks a thread on a join, and joins still run;
  at ``none`` blocking steps still appear.
* **Observed lifecycles.**  In the small TSO/PSO programs below, what
  another thread sees is decided by a join's drain or by a thread's
  finish.  A footprint that left out the drained addresses would let a
  slept join stay asleep past a load or flush that it does not commute
  with, and lose outcomes; every reduction level must reach the replay
  reference's outcome set.
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

#: t1's buffered store reaches memory through main's join, which races
#: with t2's load of the same address and with t1's own flush.
JOIN_DRAIN_SOURCE = """
int X;
int t1() { X = 1; return 0; }
int t2() { int r = X; return r; }
int main() {
  int a = fork(t1);
  int b = fork(t2);
  join(a);
  return X;
}
"""

#: t2 sees main's flag only after main joined t1, so once it reads
#: Y == 1 it must also read t1's X == 1: the join drained it first.
JOIN_THEN_FLAG_SOURCE = """
int X; int Y;
int t1() { X = 1; return 0; }
int t2() { int r = Y; int s = X; return r * 10 + s; }
int main() {
  int a = fork(t1);
  int b = fork(t2);
  join(a);
  Y = 1;
  return 0;
}
"""

#: Two threads join one target: t2's join drains t1's store whichever
#: way main's load of X and t1's own flush fall, and main joins last.
TWO_JOINERS_SOURCE = """
int X;
int t1() { X = 1; return 0; }
int t2(int t) { join(t); int r = X; return r; }
int main() {
  int a = fork(t1);
  int b = fork(t2, a);
  int r = X;
  join(a);
  return r;
}
"""

#: A thread's result is read only by a join: main returns what t1
#: returned, and t1 finishes through a plain call and return.
FINISH_SOURCE = """
int X;
int get() { int r = X; return r; }
int t1() { int r = get(); return r + 1; }
int t2() { X = 2; return 0; }
int main() {
  int a = fork(t1);
  int b = fork(t2);
  join(b);
  join(a);
  int r = X;
  return r;
}
"""

OBSERVED = {
    "join_drain": JOIN_DRAIN_SOURCE,
    "join_then_flag": JOIN_THEN_FLAG_SOURCE,
    "two_joiners": TWO_JOINERS_SOURCE,
    "finish": FINISH_SOURCE,
}


def _blocks(vm, choice):
    """True iff *choice* steps a thread into a join on an unfinished
    thread (the step that only blocks it)."""
    if choice is None or choice[0] != "step":
        return False
    instr = vm.peek(choice[1])
    if not isinstance(instr, ins.Join):
        return False
    target = vm.threads[vm._value(instr.tid, vm.threads[choice[1]].top)]
    return not target.finished


def _joins(vm, choice):
    """True iff *choice* steps a thread through a join."""
    return (choice is not None and choice[0] == "step"
            and isinstance(vm.peek(choice[1]), ins.Join))


@pytest.fixture
def join_steps(monkeypatch):
    """``explore`` that counts the join steps the search executes;
    returns ``(blocking steps, joins)``."""
    counts = [0, 0]
    edge = explorer._Search._edge

    def counting_edge(search, choice):
        counts[0] += _blocks(search.vm, choice)
        counts[1] += _joins(search.vm, choice)
        return edge(search, choice)

    monkeypatch.setattr(explorer._Search, "_edge", counting_edge)

    def run(modules, model, reduction):
        counts[:] = [0, 0]
        for module in modules:
            explore(module, model, outcome_fn=thread_results,
                    reduction=reduction, max_paths=2_000)
        return tuple(counts)
    return run


def _programs():
    modules = [LITMUS_TESTS[name].compile() for name in sorted(LITMUS_TESTS)]
    for path in CORPUS_FILES:
        with open(path) as handle:
            modules.append(compile_source(handle.read(),
                                          os.path.basename(path)))
    return modules


@pytest.mark.parametrize("model", MODELS)
def test_sleep_levels_never_block_on_join(join_steps, model):
    modules = _programs()
    for reduction in ("sleep", "sleep+cache"):
        blocking, joins = join_steps(modules, model, reduction)
        assert blocking == 0, reduction
        assert joins > 0, reduction
    blocking, _ = join_steps(modules, model, "none")
    assert blocking > 0


@pytest.mark.parametrize("name", sorted(OBSERVED))
@pytest.mark.parametrize("model", MODELS)
def test_observed_lifecycle_outcomes_match_replay(name, model):
    module = compile_source(OBSERVED[name], name)
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


def test_join_drain_race_is_relaxed_under_tso():
    """The drain race has teeth: under TSO t2 may read X before or after
    main's join drains it, and main always reads it drained."""
    outcomes = explore(compile_source(JOIN_DRAIN_SOURCE, "join_drain"),
                       "tso", outcome_fn=thread_results).outcomes
    assert {o[2] for o in outcomes} == {0, 1}
    assert {o[0] for o in outcomes} == {1}

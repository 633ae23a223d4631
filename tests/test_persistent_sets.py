"""Static persistent singletons in the explorer.

At the sleep levels, a decision point whose options include a load, an
SC store or a flush of an address ``a`` that no other thread can race
with is cut to that one option: no other unfinished thread's remaining
code may write ``a`` (for a load) or touch it (for a store or a flush),
and no other thread's buffer holds ``a``; a flush also needs its own
thread to have no page allocation or free left.  A fence, a CAS, a fork
and a join on a finished thread qualify the same way, read as their
buffer drain followed by the action itself: every drained address must
pass the flush check, a CAS's address the SC-store check, a join's
drain may share no address with the joiner's own buffer, and a fork
needs every other thread's remaining code to be free of forks and
joins.  The remaining code comes from static may-access tables, built
per explored module only when the module has no loop and no recursion
(DESIGN, "Static persistent singletons").

The tests below check that:

* the rule cuts the sbN rings to one path per outcome;
* a module with a loop or recursion keeps the search it had before the
  rule, count for count, and so does every Table-2 module;
* programs whose races the tables must see (a store through a pointer,
  a CAS through a pointer, a store still in another thread's buffer, a
  ``pagefree`` in another thread or behind the freeing thread's own
  buffered store, two threads racing for child tids, a fence, CAS or
  fork draining an address another thread reads, a CAS on an address
  another thread writes, a join draining an address another thread
  reads or the joiner's own buffer holds) keep the replay reference's
  outcomes and violations, and a join that names a tid before its
  thread exists still fails as it does there;
* a fence, a CAS, a fork and a join are each taken as a singleton
  somewhere;
* the per-thread access sets cached in ``Thread.access`` equal a fresh
  computation at every visit;
* ``ExploreStats.persistent`` reaches ``as_dict``, the metrics and the
  ``--explore`` reduction line.
"""

import pytest

from perfbench.litmus_inputs import SB3_SOURCE, SB4_SOURCE
from repro.algorithms import ALGORITHMS
from repro.cli import main as cli_main
from repro.litmus import LITMUS_TESTS, thread_results
from repro.memory.models import make_model
from repro.minic import compile_source
from repro.obs.recorder import Recorder
from repro.sched import explorer
from repro.vm.compile import make_vm
from repro.vm.errors import InterpreterError
from tests.reference.replay_explore import explore as explore_replay

MODELS = ["sc", "tso", "pso"]

#: main spins until t1 raises the flag: a loop, so the rule is off.
SPIN_SOURCE = """
int F; int D;
int t1() { D = 1; F = 1; return 0; }
int main() {
  int t = fork(t1);
  while (F == 0) { }
  int r = D;
  join(t);
  return r;
}
"""

#: main sums X twice through a recursive call: recursion, so the rule
#: is off.
RECURSIVE_SOURCE = """
int X; int Y;
int sum(int n) {
  if (n == 0) { return 0; }
  int r = X;
  return r + sum(n - 1);
}
int t1() { X = 1; Y = 1; return 0; }
int main() {
  int t = fork(t1);
  int s = sum(2);
  int y = Y;
  join(t);
  return s * 10 + y;
}
"""

#: (program, model) -> (paths, pruned, cache_hits, cache_states), the
#: search these modules had before persistent singletons existed.
UNCHANGED = {
    ("spin", "sc"): (1, 2, 2, 9),
    ("spin", "tso"): (1, 2, 2, 9),
    ("spin", "pso"): (3, 6, 2, 10),
    ("recursive", "sc"): (6, 4, 0, 23),
    ("recursive", "tso"): (10, 4, 0, 23),
    ("recursive", "pso"): (12, 11, 0, 26),
}

#: Store buffering through pointers: both accesses of each thread go
#: through a register, so the tables must count them as every address.
POINTER_SOURCE = """
int X; int Y;
int t1() {
  int* p = &X;
  *p = 1;
  int* q = &Y;
  int r = *q;
  return r;
}
int main() {
  int t = fork(t1);
  Y = 1;
  int r = X;
  join(t);
  return r;
}
"""

#: A CAS through a pointer races main's load of X.
CAS_SOURCE = """
int X; int Y;
int t1() { int ok = cas(&X, 0, 2); Y = 1; return ok; }
int main() {
  int t = fork(t1);
  int r = X;
  join(t);
  return r;
}
"""

#: t1 is finished when main loads X, but its store may still sit in its
#: buffer: only the other-buffers check keeps the flush a branch.
BUFFERED_SOURCE = """
int X;
int t1() { X = 1; return 0; }
int main() {
  int t = fork(t1);
  int r = X;
  join(t);
  return r;
}
"""

#: t1 frees the page main loads from: a use after free on one order.
PAGEFREE_SOURCE = """
int P;
int t1() { int* q = P; pagefree(q); return 0; }
int main() {
  int* p = pagealloc(1);
  P = p;
  int t = fork(t1);
  int v = *p;
  join(t);
  return v;
}
"""

#: main frees the page its own store may still be buffered for: the
#: free must also run before the flush, which is then a use after free.
OWN_PAGEFREE_SOURCE = """
int main() { int* p = pagealloc(1); *p = 1; pagefree(p); return 0; }
"""

#: The same store and free in a forked thread.
FORKED_PAGEFREE_SOURCE = """
int t1() { int* p = pagealloc(1); *p = 1; pagefree(p); return 0; }
int main() { int t = fork(t1); join(t); return 0; }
"""

#: main and t1 both fork: the child tids depend on the order.
FORK_SOURCE = """
int c() { return 0; }
int t1() { int k = fork(c); return k; }
int main() { int t = fork(t1); int k = fork(c); return k; }
"""

#: t1 joins tid 2 by number: before main's second fork it names no
#: thread, and the join fails.
EARLY_JOIN_SOURCE = """
int c() { return 5; }
int t1() { join(2); return 1; }
int main() { int t = fork(t1); int k = fork(c); join(t); return k; }
"""

#: main's drain commits X, which t1 reads; ``%s`` is the draining
#: statement.
DRAIN_TEMPLATE = """
int X; int Y;
int c() { return 0; }
int t1() { int r = X; return r; }
int main() { int t = fork(t1); X = 1; %s join(t); return 0; }
"""

#: A CAS on X, which t1 writes.
CAS_WRITE_SOURCE = """
int X;
int t1() { X = 2; return 0; }
int main() { int t = fork(t1); int ok = cas(&X, 0, 1); join(t); return ok; }
"""

#: main's join drains t1's X, which t2 reads.
JOIN_READ_SOURCE = """
int X;
int t1() { X = 1; return 0; }
int t2() { int r = X; return r; }
int main() { int a = fork(t1); int b = fork(t2); join(a); join(b); return 0; }
"""

#: main's join drains t1's X while main's own buffer holds X too: the
#: final X, which main reads after its fence, depends on the order.
JOIN_OWN_BUFFER_SOURCE = """
int X;
int t1() { X = 1; return 0; }
int main() { int t = fork(t1); X = 2; join(t); fence(); int r = X; return r; }
"""

_SOURCES = {
    "sb3": SB3_SOURCE, "sb4": SB4_SOURCE, "spin": SPIN_SOURCE,
    "recursive": RECURSIVE_SOURCE, "pointer": POINTER_SOURCE,
    "cas": CAS_SOURCE, "buffered": BUFFERED_SOURCE,
    "pagefree": PAGEFREE_SOURCE, "own_pagefree": OWN_PAGEFREE_SOURCE,
    "forked_pagefree": FORKED_PAGEFREE_SOURCE, "fork": FORK_SOURCE,
    "early_join": EARLY_JOIN_SOURCE,
    "fence_drain": DRAIN_TEMPLATE % "fence();",
    "cas_drain": DRAIN_TEMPLATE % "int ok = cas(&Y, 0, 1);",
    "fork_drain": DRAIN_TEMPLATE % "int k = fork(c);",
    "cas_write": CAS_WRITE_SOURCE, "join_read": JOIN_READ_SOURCE,
    "join_own_buffer": JOIN_OWN_BUFFER_SOURCE,
}


def _module(name):
    return compile_source(_SOURCES[name], name)


def _tables(module, model="sc", entry="main"):
    return explorer._access_tables(make_vm(module, make_model(model),
                                           entry=entry))


@pytest.mark.parametrize("name", ["sb3", "sb4"])
@pytest.mark.parametrize("model", ["tso", "pso"])
def test_ring_reaches_one_path_per_outcome(name, model):
    result = explorer.explore(_module(name), model,
                              outcome_fn=thread_results)
    assert result.exact
    assert result.stats.persistent > 0
    assert result.paths == len(result.outcomes)


@pytest.mark.parametrize("name,model", sorted(UNCHANGED))
def test_loop_or_recursion_keeps_the_search(name, model):
    module = _module(name)
    assert _tables(module) is None
    stats = explorer.explore(module, model, outcome_fn=thread_results).stats
    assert stats.persistent == 0
    assert (stats.paths, stats.pruned, stats.cache_hits,
            stats.cache_states) == UNCHANGED[name, model]


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_table2_modules_keep_the_search(name):
    bundle = ALGORITHMS[name]
    assert _tables(bundle.compile(), entry=bundle.entries[0]) is None


def test_catalog_modules_are_loop_free():
    for name, test in LITMUS_TESTS.items():
        assert _tables(test.compile()) is not None, name


@pytest.mark.parametrize("name", ["pointer", "cas", "buffered",
                                  "pagefree", "own_pagefree",
                                  "forked_pagefree", "fork",
                                  "fence_drain", "cas_drain",
                                  "fork_drain", "cas_write", "join_read",
                                  "join_own_buffer"])
@pytest.mark.parametrize("model", MODELS)
def test_races_the_tables_must_see(name, model):
    module = _module(name)
    assert _tables(module) is not None
    base = explore_replay(module, model, outcome_fn=thread_results)
    for reduction in ("sleep", "sleep+cache"):
        result = explorer.explore(module, model, outcome_fn=thread_results,
                                  reduction=reduction)
        assert result.outcomes == base.outcomes, reduction
        assert result.violations == base.violations, reduction
        assert result.exact


@pytest.mark.parametrize("model", MODELS)
def test_join_before_its_thread_exists_fails(model):
    module = _module("early_join")
    assert _tables(module) is not None
    with pytest.raises(InterpreterError, match="unknown thread 2"):
        explore_replay(module, model, outcome_fn=thread_results)
    for reduction in ("sleep", "sleep+cache"):
        with pytest.raises(InterpreterError, match="unknown thread 2"):
            explorer.explore(module, model, outcome_fn=thread_results,
                             reduction=reduction)


def test_draining_kinds_are_taken(monkeypatch):
    """A fence, a CAS, a fork and a join are each the chosen singleton
    somewhere in the catalog, sb3 and a CAS program."""
    taken = set()
    singleton = explorer._persistent_singleton

    def recording(vm, options, tables):
        option = singleton(vm, options, tables)
        if option is not None and option[1][0] == "step":
            frame = vm.threads[option[1][1]].frames[-1]
            taken.add(frame.fn.body[frame.ip].__class__.__name__)
        return option

    monkeypatch.setattr(explorer, "_persistent_singleton", recording)
    modules = [test.compile() for test in LITMUS_TESTS.values()]
    modules += [_module(name) for name in ("sb3", "cas_drain")]
    for module in modules:
        for model in MODELS:
            explorer.explore(module, model, outcome_fn=thread_results)
    assert {"Fence", "Cas", "Fork", "Join"} <= taken


def test_pagefree_race_is_found():
    result = explorer.explore(_module("pagefree"), "sc",
                              outcome_fn=thread_results)
    assert result.violations
    assert result.outcomes


@pytest.mark.parametrize("name", ["sb3", "pointer", "pagefree"])
@pytest.mark.parametrize("model", MODELS)
def test_cached_access_matches_the_tables(monkeypatch, name, model):
    """Every ``Thread.access`` the rule finds cached equals the union of
    the tables' entries over the thread's frames."""
    checked = []
    singleton = explorer._persistent_singleton

    def checking(vm, options, tables):
        for thread in vm.threads.values():
            if thread.access is not None:
                fresh = explorer._NO_ACCESS
                for frame in thread.frames:
                    fresh = explorer._union(
                        fresh, tables[frame.fn.name][frame.ip])
                assert thread.access == fresh
                checked.append(1)
        return singleton(vm, options, tables)

    monkeypatch.setattr(explorer, "_persistent_singleton", checking)
    result = explorer.explore(_module(name), model,
                              outcome_fn=thread_results)
    assert result.complete
    assert checked


def test_counter_is_reported(capsys):
    stats = explorer.explore(LITMUS_TESTS["sb"].compile(), "tso",
                             outcome_fn=thread_results).stats
    assert stats.persistent > 0
    assert stats.as_dict()["persistent"] == stats.persistent
    assert stats.estimated_unreduced == (stats.paths + stats.pruned
                                         + stats.cache_hits
                                         + stats.persistent)
    recorder = Recorder()
    recorder.explore(stats)
    counters = recorder.aggregates()["counters"]
    assert counters["explore/persistent"] == stats.persistent

    # --explore on a litmus test runs all three models.
    total = sum(explorer.explore(LITMUS_TESTS["sb"].compile(), model,
                                 outcome_fn=thread_results).stats.persistent
                for model in MODELS)
    assert cli_main(["sb", "--explore", "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "%d persistent)" % stats.persistent in out
    assert "explore/persistent: %d" % total in out

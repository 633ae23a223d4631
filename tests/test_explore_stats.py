"""Exploration counters: a pinned search, cut leaves and closed cycles
counted, exact results under a step limit that only a cached path
escapes, and snapshot sizes that do not depend on the VM backend.

The ``sleep+cache`` counters are pinned to the search with eager
thread-local steps (a plain call, an inner return, a thread's final
return and, under TSO/PSO, a buffered store run in their thread's
local burst and are never branch points), with one stored sleep set
per cached state (a revisit branches only on options asleep at every
earlier visit and awake now, so no edge out of a closed cached state
runs twice), and with thread lifecycle footprints: a join waits for
its target instead of branching on a step that would only block.
Running calls and returns eagerly cut ``cache_states`` (sb4/tso
2024 -> 565), ``cache_hits`` and ``pruned``, while ``paths`` rose
(sb4/tso 17 -> 25, sb3 9 -> 13, sb 5 -> 6): leaves that used to end
as cache hits just before a final return are now reached.  No
outcome moved.  Static persistent singletons (a load, an SC store or
a flush that no other thread's remaining code or buffer can race with
is the only option taken at its decision point) then cut every pinned
row but mp/sc: sb4/tso 565 -> 259 states and 25 -> 16 paths, one path
per outcome, sb3/tso 118 -> 68 states and 13 -> 8 paths.  Again no
outcome moved.  Forks, joins on finished threads, fences and CAS then
became persistent singletons too, each read as its buffer drain
followed by the action itself: sb4/tso 259 -> 180 states and 227 ->
136 pruned branches, sb4/sc 157 -> 126, sb3/tso 68 -> 59 and 2+2w/pso
53 -> 41, with the same paths and outcomes.  The cached state keys,
step options and remaining-code access sets must leave every decision
as the uncached explorer makes it, so any drift in these numbers is a
change of search; the replay sweep of ``test_explore_equivalence.py``
guards exactness, ``test_cache_revisits.py`` the visited states and
edges, ``test_lifecycle_footprints.py`` the joins,
``test_eager_calls.py`` the eager calls and returns and
``test_persistent_sets.py`` the persistent singletons.
"""

import json

import pytest

from perfbench.litmus_inputs import SB3_SOURCE, SB4_SOURCE
from repro.cli import main as cli_main
from repro.fuzz.oracles import OracleConfig, check_module
from repro.litmus import LITMUS_TESTS, thread_results
from repro.minic import compile_source
from repro.obs.recorder import Recorder
from repro.sched.explorer import explore

#: (program, model) -> (paths, pruned, cache_hits, cache_states) at the
#: default ``sleep+cache`` reduction.
PINNED = {
    ("sb", "sc"): (3, 1, 0, 13),
    ("sb", "tso"): (4, 4, 0, 17),
    ("sb", "pso"): (4, 4, 0, 17),
    ("mp", "sc"): (2, 1, 0, 8),
    ("mp", "tso"): (2, 1, 0, 9),
    ("mp", "pso"): (3, 2, 0, 13),
    ("2+2w", "pso"): (4, 8, 20, 41),
    ("sb3", "tso"): (8, 28, 0, 59),
    ("sb3", "pso"): (8, 28, 0, 59),
    # sb4 under tso/pso carried most of an explore-litmus perfbench pass
    # before the persistent singletons cut it to one path per outcome.
    ("sb4", "sc"): (15, 39, 0, 126),
    ("sb4", "tso"): (16, 136, 0, 180),
    ("sb4", "pso"): (16, 136, 0, 180),
}

#: A spin loop that never ends.  The counter makes every iteration a new
#: state, so the state cache cannot close the loop and each path runs
#: into the step limit.
SPIN_SOURCE = """
int F;
int t1() { int i = 0; while (F == 0) { i = i + 1; } return i; }
int main() {
  int t = fork(t1);
  join(t);
  return 0;
}
"""

#: A spin loop whose state repeats: one iteration leads back to the
#: state it started from, so at ``sleep+cache`` the state cache closes
#: the loop before the step limit can cut it.
CYCLE_SOURCE = """
int F;
int t1() { while (F == 0) { } return 0; }
int main() {
  int t = fork(t1);
  join(t);
  return 0;
}
"""


#: Two interleavings reach one state at different step counts.  Main
#: calls ``drain``, which reads X and counts it down; t1 sets X.  If
#: main reads X before t1's store, ``drain`` loops 0 times, otherwise
#: once (5 more steps).  Once ``drain`` has returned 0 and t1 has
#: finished, both paths are in the same state, so the cache merges
#: them.  Every path then runs main's tail loop to the end: 47 or 48
#: steps in all when ``drain`` read 0, 52 or 53 when it read 1.
TRUNCATION_SOURCE = """
int X; int Y;
int t1() { X = 1; int s = Y; return s; }
int drain() {
  int r = X;
  while (r > 0) { r = r - 1; }
  return r;
}
int main() {
  int t = fork(t1);
  int r = drain();
  Y = 1;
  join(t);
  int i = 0;
  while (i < 5) { i = i + 1; }
  return r + i;
}
"""

#: Between the two step counts above: cuts only the longer paths.
TRUNCATION_MAX_STEPS = 50

_SOURCES = {"sb3": SB3_SOURCE, "sb4": SB4_SOURCE}


def _module(name):
    if name in _SOURCES:
        return compile_source(_SOURCES[name], name)
    return LITMUS_TESTS[name].compile()


@pytest.mark.parametrize("name,model", sorted(PINNED))
def test_same_search_as_uncached_explorer(name, model):
    stats = explore(_module(name), model, outcome_fn=thread_results).stats
    assert (stats.paths, stats.pruned, stats.cache_hits,
            stats.cache_states) == PINNED[name, model]


def test_step_limited_counts_cut_leaves():
    result = explore(compile_source(SPIN_SOURCE, "spin"), "tso",
                     outcome_fn=thread_results, max_steps=40)
    stats = result.stats
    assert stats.step_limited > 0
    assert stats.step_limited <= stats.paths
    assert stats.as_dict()["step_limited"] == stats.step_limited
    recorder = Recorder()
    recorder.explore(stats)
    counters = recorder.aggregates()["counters"]
    assert counters["explore/step_limited"] == stats.step_limited


def test_step_limited_exploration_is_not_exact():
    result = explore(compile_source(SPIN_SOURCE, "spin"), "tso",
                     outcome_fn=thread_results, max_steps=40)
    assert result.complete
    assert not result.exact
    assert explore(LITMUS_TESTS["sb"].compile(), "tso",
                   outcome_fn=thread_results).exact


@pytest.mark.parametrize("model", ["sc", "tso", "pso"])
def test_cache_hit_past_the_step_limit_stays_exact(model):
    """The state key leaves out the step count.  The cache may then
    stand in for a path that would have run into the step limit, and
    the result must still be exact: the state it hit was explored to
    its end by the shorter path."""
    module = compile_source(TRUNCATION_SOURCE, "truncation")
    leaf_steps = explore(module, model, outcome_fn=lambda vm: vm.steps,
                         reduction="none").outcomes
    assert min(leaf_steps) <= TRUNCATION_MAX_STEPS < max(leaf_steps)
    full = explore(module, model, outcome_fn=thread_results)
    assert full.exact
    assert full.outcomes == {(5, 0), (5, 1)}

    cached = explore(module, model, outcome_fn=thread_results,
                     max_steps=TRUNCATION_MAX_STEPS)
    assert cached.stats.cache_hits > 0
    assert cached.stats.step_limited == 0
    assert cached.exact
    assert cached.outcomes == full.outcomes

    plain = explore(module, model, outcome_fn=thread_results,
                    max_steps=TRUNCATION_MAX_STEPS, reduction="none")
    assert plain.stats.step_limited > 0
    assert not plain.exact


def test_cli_explore_reports_step_limit(tmp_path, capsys):
    path = tmp_path / "spin.c"
    path.write_text(SPIN_SOURCE)
    code = cli_main([str(path), "--explore"])
    captured = capsys.readouterr()
    assert code == 3
    assert "STEP LIMIT HIT (" in captured.out
    assert "exact" not in captured.out
    assert "lower bounds" in captured.err


def test_oracle_step_limited_exploration_is_inconclusive():
    report = check_module(compile_source(SPIN_SOURCE, "spin"),
                          OracleConfig(max_steps=40))
    assert report.ok
    assert report.inconclusive == [("inclusion", "sc"), ("inclusion", "tso"),
                                   ("inclusion", "pso")]
    assert report.outcomes == {}
    assert report.paths > 0


@pytest.mark.parametrize("model", ["sc", "tso", "pso"])
def test_cache_closed_cycle_is_not_exact(model):
    result = explore(compile_source(CYCLE_SOURCE, "cycle"), model,
                     outcome_fn=thread_results)
    stats = result.stats
    assert result.complete
    assert stats.step_limited == 0
    assert 0 < stats.cycles <= stats.cache_hits
    assert not result.exact
    assert stats.as_dict()["cycles"] == stats.cycles
    recorder = Recorder()
    recorder.explore(stats)
    assert recorder.aggregates()["counters"]["explore/cycles"] == \
        stats.cycles


@pytest.mark.parametrize("reduction", ["none", "sleep"])
def test_cycle_without_cache_runs_into_the_step_limit(reduction):
    result = explore(compile_source(CYCLE_SOURCE, "cycle"), "tso",
                     outcome_fn=thread_results, max_steps=40,
                     reduction=reduction)
    assert result.stats.cycles == 0
    assert result.stats.step_limited > 0
    assert not result.exact


def test_cli_explore_reports_closed_cycle(tmp_path, capsys):
    path = tmp_path / "cycle.c"
    path.write_text(CYCLE_SOURCE)
    code = cli_main([str(path), "--explore"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out.count("CYCLE CLOSED (") == 3
    assert "exact" not in captured.out
    assert "closed a cycle" in captured.err
    assert "lower bounds" in captured.err


def test_oracle_cycle_is_inconclusive():
    report = check_module(compile_source(CYCLE_SOURCE, "cycle"),
                          OracleConfig(max_steps=40))
    assert report.ok
    assert report.inconclusive == [("inclusion", "sc"), ("inclusion", "tso"),
                                   ("inclusion", "pso")]


def test_cli_explore_feeds_the_recorder(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    code = cli_main(["sb", "--explore", "--metrics", "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    assert "explore/runs: 3" in out
    assert "explore/cycles: 0" in out
    events = json.loads(trace.read_text())["traceEvents"]
    spans = [e for e in events if e["name"] == "explore"]
    assert [e["args"]["model"] for e in spans] == ["sc", "tso", "pso"]


@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
@pytest.mark.parametrize("model", ["sc", "tso", "pso"])
def test_catalog_has_no_step_limited_leaves(name, model):
    result = explore(LITMUS_TESTS[name].compile(), model,
                     outcome_fn=thread_results)
    assert result.stats.step_limited == 0
    assert result.stats.cycles == 0


def test_snapshot_bytes_same_on_both_backends(reference_vm):
    sizes = {}
    for compiled in (True, False):
        with reference_vm(not compiled):
            stats = explore(LITMUS_TESTS["sb"].compile(), "tso",
                            outcome_fn=thread_results).stats
            sizes[compiled] = stats.snapshot_bytes
    assert sizes[True] > 0
    assert sizes[True] == sizes[False]

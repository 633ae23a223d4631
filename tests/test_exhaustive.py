"""Exhaustive-exploration validation of the memory-model semantics.

The stateless DFS explorer enumerates *every* schedule (thread steps and
flush actions) of bounded litmus programs, so these tests pin down the
exact outcome sets each model admits — a much stronger check than random
sampling, and a cross-validation of the random scheduler's findings.
"""

import pytest

from repro.minic import compile_source
from repro.sched.explorer import explore

# Results travel through thread return values (not globals), keeping the
# schedule tree small enough for exact enumeration.
SB = """
int X; int Y;
int t1() { X = 1; int r = Y; return r; }
int main() {
  int t = fork(t1);
  Y = 1;
  int r = X;
  join(t);
  return r;
}
"""

SB_FENCED = """
int X; int Y;
int t1() { X = 1; fence_sl(); int r = Y; return r; }
int main() {
  int t = fork(t1);
  Y = 1;
  fence_sl();
  int r = X;
  join(t);
  return r;
}
"""


def thread_results(vm):
    return tuple(vm.threads[tid].result for tid in sorted(vm.threads))

# Bounded message passing: the reader samples the flag once instead of
# spinning, keeping the schedule tree finite.
MP_BOUNDED = """
int D; int F;
int reader() {
  if (F == 1) { return D; }
  return 9;
}
int main() {
  int t = fork(reader);
  D = 1; F = 1;
  join(t);
  return 0;
}
"""

CAS_RACE = """
int X; int WINS;
void t1() { if (cas(&X, 0, 1)) { WINS = WINS + 10; } }
int main() {
  int t = fork(t1);
  if (cas(&X, 0, 2)) { WINS = WINS + 1; }
  join(t);
  return 0;
}
"""


def global_values(names):
    """Outcome = the named globals' final values."""
    def outcome_fn(vm):
        return tuple(vm.memory.read(vm.memory.global_addr[g])
                     for g in names)
    return outcome_fn


def outcomes(source, globals_, model, **kw):
    module = compile_source(source)
    result = explore(module, model, outcome_fn=global_values(globals_),
                     **kw)
    assert result.complete, "path budget too small for an exact answer"
    return result.outcomes


def result_outcomes(source, model, **kw):
    """Outcome = every thread's return value, in tid order."""
    module = compile_source(source)
    result = explore(module, model, outcome_fn=thread_results, **kw)
    assert result.complete, "path budget too small for an exact answer"
    return result.outcomes


class TestStoreBufferingExact:
    # Outcomes are (r2, r1) = (main's read of X, t1's read of Y).
    def test_sc_outcome_set(self):
        got = result_outcomes(SB, "sc")
        assert got == {(0, 1), (1, 0), (1, 1)}

    def test_tso_adds_exactly_the_relaxed_outcome(self):
        got = result_outcomes(SB, "tso")
        assert got == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_pso_same_as_tso_for_sb(self):
        got = result_outcomes(SB, "pso")
        assert got == {(0, 0), (0, 1), (1, 0), (1, 1)}

    @pytest.mark.parametrize("model", ["sc", "tso", "pso"])
    def test_fences_remove_only_the_relaxed_outcome(self, model):
        got = result_outcomes(SB_FENCED, model)
        assert got == {(0, 1), (1, 0), (1, 1)}


class TestMessagePassingExact:
    # Outcomes are (0, reader's result).
    def test_sc_outcomes(self):
        got = result_outcomes(MP_BOUNDED, "sc")
        assert got == {(0, 1), (0, 9)}

    def test_tso_preserves_store_order(self):
        got = result_outcomes(MP_BOUNDED, "tso")
        assert got == {(0, 1), (0, 9)}

    def test_pso_adds_the_stale_data_outcome(self):
        got = result_outcomes(MP_BOUNDED, "pso")
        assert got == {(0, 0), (0, 1), (0, 9)}


class TestCasAtomicity:
    @pytest.mark.parametrize("model", ["sc", "tso", "pso"])
    def test_exactly_one_cas_wins(self, model):
        got = outcomes(CAS_RACE, ("WINS", "X"), model)
        # One winner: WINS is 1 (main won, X=2) or 10 (thread won, X=1).
        assert got == {(1, 2), (10, 1)}


class TestExplorerMechanics:
    def test_budget_reported(self):
        module = compile_source(SB)
        result = explore(module, "pso", outcome_fn=thread_results,
                         max_paths=3)
        assert not result.complete
        assert result.paths == 3

    @pytest.mark.parametrize("reduction", ["none", "sleep", "sleep+cache"])
    @pytest.mark.parametrize("model", ["sc", "tso", "pso"])
    def test_budget_equal_to_the_path_count_is_complete(self, model,
                                                        reduction):
        module = compile_source(SB)
        paths = explore(module, model, outcome_fn=thread_results,
                        reduction=reduction).paths
        result = explore(module, model, outcome_fn=thread_results,
                         max_paths=paths, reduction=reduction)
        assert result.complete
        assert result.paths == paths
        short = explore(module, model, outcome_fn=thread_results,
                        max_paths=paths - 1, reduction=reduction)
        assert not short.complete
        assert short.paths == paths - 1

    def test_violations_collected(self):
        src = """
        int X;
        void t1() { X = 1; }
        int main() {
          int t = fork(t1);
          assert(X == 0);
          join(t);
          return 0;
        }
        """
        module = compile_source(src)
        result = explore(module, "sc", outcome_fn=global_values(("X",)))
        assert result.violations  # some schedule fails the assert
        assert result.outcomes    # and some schedule passes

    def test_agreement_with_random_scheduler(self):
        # Every outcome the random scheduler observes must be in the
        # exhaustive set (soundness of the sampler).
        from repro.memory import make_model
        from repro.sched import FlushDelayScheduler
        from repro.vm import make_vm

        module = compile_source(SB)
        exact = result_outcomes(SB, "pso")
        for seed in range(60):
            vm = make_vm(module, make_model("pso"))
            FlushDelayScheduler(seed=seed, flush_prob=0.3).run(vm)
            sampled = tuple(vm.threads[tid].result
                            for tid in sorted(vm.threads))
            assert sampled in exact

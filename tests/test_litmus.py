"""Litmus-test matrix: which relaxed outcomes each memory model admits.

For each classic litmus test we run many schedules per model and check
the outcome sets against the architectural truth table:

| test | SC | TSO | PSO |
|------|----|-----|-----|
| SB (store buffering)        | forbidden | allowed | allowed |
| MP (message passing)        | forbidden | forbidden | allowed |
| LB-ish CoRR (same-location) | forbidden | forbidden | forbidden |
| SB+fences                   | forbidden | forbidden | forbidden |
| MP+st-st fence              | forbidden | forbidden | forbidden |

"Allowed" additionally asserts the behaviour is actually *observed*
within the schedule budget (the demonic scheduler must find it).
"""

import pytest

from repro.memory import make_model
from repro.minic import compile_source
from repro.sched import FlushDelayScheduler
from repro.vm import make_vm

RUNS = 120
FLUSH_PROB = 0.25

SB = """
int X; int Y; int R1; int R2;
void t1() { X = 1; R1 = Y; }
int main() {
  int t = fork(t1);
  Y = 1; R2 = X;
  join(t);
  return 0;
}
"""

SB_FENCED = """
int X; int Y; int R1; int R2;
void t1() { X = 1; fence_sl(); R1 = Y; }
int main() {
  int t = fork(t1);
  Y = 1; fence_sl(); R2 = X;
  join(t);
  return 0;
}
"""

MP = """
int D; int F; int OUT;
void reader() { while (F == 0) {} OUT = D; }
int main() {
  int t = fork(reader);
  D = 1; F = 1;
  join(t);
  return 0;
}
"""

MP_FENCED = """
int D; int F; int OUT;
void reader() { while (F == 0) {} OUT = D; }
int main() {
  int t = fork(reader);
  D = 1; fence_ss(); F = 1;
  join(t);
  return 0;
}
"""

# Coherence of reads to the same location: a reader seeing X go
# backwards (1 then 0) would break per-location ordering.
CORR = """
int X; int A; int B;
void reader() { A = X; B = X; }
int main() {
  int t = fork(reader);
  X = 1;
  join(t);
  return 0;
}
"""


def outcomes(source, globals_to_read, model_name, runs=RUNS):
    module = compile_source(source)
    seen = set()
    for seed in range(runs):
        vm = make_vm(module, make_model(model_name))
        FlushDelayScheduler(seed=seed, flush_prob=FLUSH_PROB).run(vm)
        seen.add(tuple(vm.memory.read(vm.memory.global_addr[g])
                       for g in globals_to_read))
    return seen


class TestStoreBuffering:
    def test_sc_forbids(self):
        assert (0, 0) not in outcomes(SB, ("R1", "R2"), "sc")

    @pytest.mark.parametrize("model", ["tso", "pso"])
    def test_relaxed_models_observe(self, model):
        assert (0, 0) in outcomes(SB, ("R1", "R2"), model)

    @pytest.mark.parametrize("model", ["sc", "tso", "pso"])
    def test_fences_restore_sc(self, model):
        assert (0, 0) not in outcomes(SB_FENCED, ("R1", "R2"), model)


class TestMessagePassing:
    @pytest.mark.parametrize("model", ["sc", "tso"])
    def test_ordered_models_forbid(self, model):
        assert (0,) not in outcomes(MP, ("OUT",), model)

    def test_pso_observes(self):
        assert (0,) in outcomes(MP, ("OUT",), "pso")

    @pytest.mark.parametrize("model", ["sc", "tso", "pso"])
    def test_store_store_fence_restores(self, model):
        assert (0,) not in outcomes(MP_FENCED, ("OUT",), model)


class TestCoherence:
    @pytest.mark.parametrize("model", ["sc", "tso", "pso"])
    def test_reads_of_one_location_never_go_backwards(self, model):
        for (a, b) in outcomes(CORR, ("A", "B"), model):
            assert not (a == 1 and b == 0), \
                "%s let a same-location read go backwards" % model


class TestStoreForwarding:
    SELF = """
    int X; int R;
    int main() {
      X = 7;
      R = X;       // must forward the thread's own buffered store
      return 0;
    }
    """

    @pytest.mark.parametrize("model", ["sc", "tso", "pso"])
    def test_own_stores_always_visible(self, model):
        for (r,) in outcomes(self.SELF, ("R",), model, runs=40):
            assert r == 7

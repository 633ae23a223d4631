"""Deeper VM concurrency semantics: multi-thread structures, CAS races,
cross-thread allocation, recursion depth, and operation recording."""

import pytest

from repro.memory import make_model
from repro.minic import compile_source
from repro.sched import FlushDelayScheduler
from repro.vm import make_vm

from tests.reference.replay_explore import explore


def run(source, model="sc", seed=0, flush_prob=0.3, entry="main"):
    module = compile_source(source)
    vm = make_vm(module, make_model(model), entry=entry)
    FlushDelayScheduler(seed=seed, flush_prob=flush_prob).run(vm)
    return vm


class TestThreeThreads:
    SRC = """
    int C;
    void bump() {
      while (1) {
        int c = C;
        if (cas(&C, c, c + 1)) { return; }
      }
    }
    int main() {
      int t1 = fork(bump);
      int t2 = fork(bump);
      int t3 = fork(bump);
      join(t1); join(t2); join(t3);
      return C;
    }
    """

    @pytest.mark.parametrize("model", ["sc", "tso", "pso"])
    def test_cas_increment_is_exact_with_three_threads(self, model):
        for seed in range(8):
            vm = run(self.SRC, model, seed)
            assert vm.threads[0].result == 3

    @pytest.mark.slow
    def test_exhaustive_three_thread_cas(self):
        # Three CAS loops explode the schedule tree past exact
        # enumeration; the sound claim is that every explored schedule
        # (tens of thousands) yields exactly 3.  The replay reference
        # counts unreduced paths.
        module = compile_source(self.SRC)
        result = explore(module, "sc",
                         outcome_fn=lambda vm: (vm.threads[0].result,),
                         max_paths=20_000)
        assert result.paths >= 1000
        assert result.outcomes == {(3,)}


class TestForkTopology:
    def test_grandchildren(self):
        src = """
        int DEPTH;
        void leaf() { DEPTH = DEPTH + 100; }
        void child() {
          int t = fork(leaf);
          join(t);
          DEPTH = DEPTH + 10;
        }
        int main() {
          int t = fork(child);
          join(t);
          DEPTH = DEPTH + 1;
          return DEPTH;
        }
        """
        assert run(src).threads[0].result == 111

    def test_sibling_join_by_tid_value(self):
        # Thread ids are plain ints: a thread can join a sibling whose
        # tid it received as an argument.
        src = """
        int OUT;
        void slow() { OUT = 5; }
        void waiter(int target) {
          join(target);
          OUT = OUT * 2;
        }
        int main() {
          int t1 = fork(slow);
          int t2 = fork(waiter, t1);
          join(t2);
          return OUT;
        }
        """
        for model in ("sc", "tso", "pso"):
            for seed in range(6):
                assert run(src, model, seed).threads[0].result == 10

    def test_many_threads(self):
        src = """
        int total[1];
        int tids[8];
        int L;
        void w(int k) {
          lock(&L);
          total[0] = total[0] + k;
          unlock(&L);
        }
        int main() {
          for (int i = 0; i < 8; i = i + 1) {
            tids[i] = fork(w, i);
          }
          for (int i = 0; i < 8; i = i + 1) {
            join(tids[i]);
          }
          return total[0];
        }
        """
        # tids live in a global array (MiniC locals are scalar registers).
        for seed in range(4):
            assert run(src, "pso", seed).threads[0].result == 28


class TestCrossThreadHeap:
    def test_child_allocates_parent_reads(self):
        src = """
        int* SHARED;
        void maker() {
          int* p = pagealloc(3);
          p[0] = 7; p[1] = 8; p[2] = 9;
          SHARED = p;
        }
        int main() {
          int t = fork(maker);
          join(t);
          int* p = SHARED;
          return p[0] + p[1] + p[2];
        }
        """
        for model in ("tso", "pso"):
            for seed in range(6):
                assert run(src, model, seed).threads[0].result == 24

    def test_parent_frees_child_allocation(self):
        src = """
        int* SHARED;
        void maker() { SHARED = pagealloc(2); }
        int main() {
          int t = fork(maker);
          join(t);
          pagefree(SHARED);
          return 1;
        }
        """
        assert run(src).threads[0].result == 1


class TestRecursionDepth:
    def test_deep_recursion(self):
        src = """
        int depth(int n) {
          if (n == 0) { return 0; }
          return 1 + depth(n - 1);
        }
        int main() { return depth(200); }
        """
        assert run(src).threads[0].result == 200

    def test_mutual_recursion(self):
        src = """
        int is_odd(int n);
        int is_even(int n) {
          if (n == 0) { return 1; }
          return is_odd(n - 1);
        }
        int is_odd(int n) {
          if (n == 0) { return 0; }
          return is_even(n - 1);
        }
        int main() { return is_even(10) * 10 + is_odd(7); }
        """
        # Prototypes are not part of the grammar: the parser rejects the
        # body-less declaration.
        from repro.minic import ParseError
        with pytest.raises(ParseError):
            compile_source(src)

    def test_mutual_recursion_via_definition_order(self):
        # All signatures are collected before bodies are lowered, so
        # definition order does not matter (no forward declarations
        # needed).
        src = """
        int is_even(int n) {
          if (n == 0) { return 1; }
          return is_odd(n - 1);
        }
        int is_odd(int n) {
          if (n == 0) { return 0; }
          return is_even(n - 1);
        }
        int main() { return is_even(10) * 10 + is_odd(7); }
        """
        assert run(src).threads[0].result == 11


class TestOperationRecording:
    def test_nested_operation_calls_both_recorded(self):
        src = """
        int inner(int x) { return x + 1; }
        int outer(int x) { return inner(x) * 2; }
        int main() { outer(3); return 0; }
        """
        from repro.vm import run_once
        module = compile_source(src)
        result = run_once(module, operations=("outer", "inner"))
        names = [op.name for op in result.history]
        assert names == ["outer", "inner"]
        outer_op = result.history.operations[0]
        inner_op = result.history.operations[1]
        # Nesting: inner's span lies within outer's.
        assert outer_op.call_seq < inner_op.call_seq
        assert inner_op.ret_seq < outer_op.ret_seq

    def test_per_thread_attribution(self):
        src = """
        int op(int x) { return x; }
        void w() { op(2); }
        int main() { int t = fork(w); op(1); join(t); return 0; }
        """
        from repro.vm import run_once
        module = compile_source(src)
        result = run_once(module, operations=("op",), seed=4)
        tids = {op.args[0]: op.tid for op in result.history}
        assert tids[1] == 0
        assert tids[2] == 1

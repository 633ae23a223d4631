"""Unit tests for VM semantics (via MiniC programs and raw IR), on the VM
that ``make_vm`` builds."""

import pytest

from repro.ir import Const, GlobalVar, IRBuilder, Module, Reg, Sym
from repro.minic import compile_source
from repro.vm import (
    ExecutionStatus,
    InterpreterError,
    make_vm,
    run_once,
)
from repro.memory import make_model

from tests.reference.round_robin import RoundRobinScheduler


def run_main(source, model="sc", seed=0, **kwargs):
    module = compile_source(source)
    return run_once(module, model, seed=seed, **kwargs)


def main_result(source, model="sc", seed=0):
    """Run and return main's return value (via a result global)."""
    module = compile_source(source)
    model_obj = make_model(model)
    vm = make_vm(module, model_obj, entry="main")
    RoundRobinScheduler().run(vm)
    return vm.threads[0].result


class TestArithmetic:
    def test_basic_ops(self):
        src = "int main() { return (7 + 3) * 2 - 5; }"
        assert main_result(src) == 15

    def test_division_truncates_toward_zero(self):
        assert main_result("int main() { return (0 - 7) / 2; }") == -3
        assert main_result("int main() { return 7 / 2; }") == 3

    def test_modulo_sign_follows_dividend(self):
        assert main_result("int main() { return (0 - 7) % 3; }") == -1
        assert main_result("int main() { return 7 % 3; }") == 1

    def test_bitwise(self):
        assert main_result("int main() { return (12 & 10) | (1 ^ 3); }") == 10
        assert main_result("int main() { return 1 << 4; }") == 16
        assert main_result("int main() { return 64 >> 3; }") == 8

    def test_comparisons(self):
        assert main_result("int main() { return (1 < 2) + (2 <= 2) + "
                           "(3 > 2) + (2 >= 3) + (1 == 1) + (1 != 1); }") == 4

    def test_unary(self):
        assert main_result("int main() { return -5 + !0 + !7 + ~0; }") == -5

    def test_division_by_zero_is_interpreter_error(self):
        module = compile_source("int Z; int main() { return 5 / Z; }")
        model = make_model("sc")
        vm = make_vm(module, model)
        with pytest.raises(InterpreterError):
            while not vm.all_finished():
                vm.step(0)


class TestControlFlow:
    def test_if_else(self):
        src = """
        int f(int x) { if (x > 10) { return 1; } else { return 2; } }
        int main() { return f(11) * 10 + f(3); }
        """
        assert main_result(src) == 12

    def test_while_loop(self):
        src = """
        int main() {
          int s = 0;
          int i = 0;
          while (i < 5) { s = s + i; i = i + 1; }
          return s;
        }
        """
        assert main_result(src) == 10

    def test_for_loop_with_break_continue(self):
        src = """
        int main() {
          int s = 0;
          for (int i = 0; i < 10; i = i + 1) {
            if (i == 7) { break; }
            if (i % 2 == 0) { continue; }
            s = s + i;
          }
          return s;
        }
        """
        assert main_result(src) == 1 + 3 + 5

    def test_short_circuit_avoids_rhs(self):
        # RHS would divide by zero if evaluated.
        src = """
        int Z;
        int main() {
          if (0 && (1 / Z)) { return 1; }
          if (1 || (1 / Z)) { return 2; }
          return 3;
        }
        """
        assert main_result(src) == 2

    def test_ternary(self):
        assert main_result("int main() { return 1 ? 42 : 7; }") == 42
        assert main_result("int main() { return 0 ? 42 : 7; }") == 7


class TestFunctions:
    def test_recursion(self):
        src = """
        int fib(int n) {
          if (n < 2) { return n; }
          return fib(n - 1) + fib(n - 2);
        }
        int main() { return fib(10); }
        """
        assert main_result(src) == 55

    def test_void_function_call(self):
        src = """
        int G;
        void set(int v) { G = v; }
        int main() { set(9); return G; }
        """
        assert main_result(src) == 9

    def test_uninitialised_local_reads_zero(self):
        assert main_result("int main() { int x; return x; }") == 0


class TestThreads:
    def test_fork_join_and_self(self):
        src = """
        int ids[4];
        void worker(int slot) { ids[slot] = self(); }
        int main() {
          int t1 = fork(worker, 1);
          int t2 = fork(worker, 2);
          join(t1);
          join(t2);
          return ids[1] * 10 + ids[2];
        }
        """
        assert main_result(src) == 12

    def test_join_makes_child_writes_visible(self):
        src = """
        int G;
        void w() { G = 123; }
        int main() { int t = fork(w); join(t); return G; }
        """
        for model in ("sc", "tso", "pso"):
            assert main_result(src, model) == 123

    def test_fork_publishes_parent_writes(self):
        src = """
        int G; int R;
        void r() { R = G; }
        int main() { G = 55; int t = fork(r); join(t); return R; }
        """
        for model in ("tso", "pso"):
            assert main_result(src, model) == 55

    def test_nested_forks(self):
        src = """
        int G;
        void leaf() { G = G + 1; }
        void mid() { int t = fork(leaf); join(t); G = G + 1; }
        int main() { int t = fork(mid); join(t); return G; }
        """
        assert main_result(src) == 2


class TestCas:
    def test_successful_cas(self):
        src = """
        int G = 5;
        int main() { int ok = cas(&G, 5, 9); return ok * 100 + G; }
        """
        assert main_result(src) == 109

    def test_failed_cas_leaves_memory(self):
        src = """
        int G = 5;
        int main() { int ok = cas(&G, 4, 9); return ok * 100 + G; }
        """
        assert main_result(src) == 5


class TestHistoryRecording:
    def test_operations_recorded_with_args_and_results(self):
        src = """
        int op(int x) { return x * 2; }
        int main() { op(3); op(4); return 0; }
        """
        module = compile_source(src)
        res = run_once(module, "sc", operations=("op",))
        ops = res.history.complete_ops()
        assert [(o.name, o.args, o.result) for o in ops] == [
            ("op", (3,), 6), ("op", (4,), 8)]
        assert ops[0].ret_seq < ops[1].call_seq

    def test_non_operations_not_recorded(self):
        src = """
        int helper() { return 1; }
        int op() { return helper(); }
        int main() { op(); return 0; }
        """
        module = compile_source(src)
        res = run_once(module, "sc", operations=("op",))
        assert [o.name for o in res.history] == ["op"]


class TestSafetyAndLimits:
    def test_null_deref_is_memory_violation(self):
        src = "int* P; int main() { return *P; }"
        res = run_main(src)
        assert res.status is ExecutionStatus.MEMORY_VIOLATION

    def test_out_of_bounds_store_flush_violates(self):
        src = """
        int arr[4];
        int main() { arr[9] = 1; return 0; }
        """
        res = run_main(src)
        assert res.status is ExecutionStatus.MEMORY_VIOLATION

    def test_use_after_free_flush_detected(self):
        src = """
        int main() {
          int* p = pagealloc(4);
          pagefree(p);
          *p = 7;
          return 0;
        }
        """
        res = run_main(src)
        assert res.status is ExecutionStatus.MEMORY_VIOLATION

    def test_assert_failure(self):
        res = run_main("int main() { assert(1 == 2); return 0; }")
        assert res.status is ExecutionStatus.ASSERTION_VIOLATION

    def test_assert_success(self):
        res = run_main("int main() { assert(2 == 2); return 0; }")
        assert res.status is ExecutionStatus.OK

    def test_infinite_loop_hits_step_limit(self):
        src = "int G; int main() { while (1) { G = G + 1; } return 0; }"
        module = compile_source(src)
        res = run_once(module, "sc", max_steps=500)
        assert res.status is ExecutionStatus.TIMEOUT

    def test_pagealloc_pointers_usable(self):
        src = """
        int main() {
          int* p = pagealloc(3);
          p[0] = 1;
          p[1] = 2;
          p[2] = 4;
          return p[0] + p[1] + p[2];
        }
        """
        assert main_result(src) == 7

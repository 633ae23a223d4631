"""Unit tests for the execution driver, history events and VM plumbing."""

import pytest

from repro.ir import GlobalVar, IRBuilder, Module, Reg, Sym
from repro.memory import make_model
from repro.minic import compile_source
from repro.sched import FlushDelayScheduler
from repro.vm import (
    DeadlockError,
    ExecutionStatus,
    History,
    InterpreterError,
    Operation,
    make_vm,
    run_execution,
    run_once,
)


class TestOperation:
    def test_precedence(self):
        a = Operation(0, "f", (), call_seq=1)
        a.ret_seq = 5
        b = Operation(1, "g", (), call_seq=7)
        assert a.precedes(b)
        assert not b.precedes(a)

    def test_overlapping_ops_do_not_precede(self):
        a = Operation(0, "f", (), call_seq=1)
        a.ret_seq = 10
        b = Operation(1, "g", (), call_seq=5)
        b.ret_seq = 15
        assert not a.precedes(b)
        assert not b.precedes(a)

    def test_incomplete(self):
        op = Operation(0, "f", (1,), call_seq=1)
        assert not op.complete
        op.ret_seq = 2
        assert op.complete


class TestHistory:
    def test_by_thread_groups_in_program_order(self):
        h = History()
        h.begin(1, "a", (), 1).ret_seq = 2
        h.begin(0, "b", (), 3).ret_seq = 4
        h.begin(1, "c", (), 5).ret_seq = 6
        groups = h.by_thread()
        assert [op.name for op in groups[1]] == ["a", "c"]
        assert [op.name for op in groups[0]] == ["b"]

    def test_complete_ops_filters(self):
        h = History()
        done = h.begin(0, "a", (), 1)
        done.ret_seq = 2
        h.begin(0, "b", (), 3)  # never returns
        assert [op.name for op in h.complete_ops()] == ["a"]


class TestDriverStatuses:
    def test_ok(self):
        module = compile_source("int main() { return 0; }")
        assert run_once(module).status is ExecutionStatus.OK

    def test_memory_violation(self):
        module = compile_source("int* P; int main() { return *P; }")
        result = run_once(module)
        assert result.status is ExecutionStatus.MEMORY_VIOLATION
        assert result.crashed
        assert result.usable
        assert "NULL" in result.error

    def test_timeout_not_usable(self):
        module = compile_source(
            "int G; int main() { while (1) { G = G + 1; } return 0; }")
        result = run_once(module, max_steps=300)
        assert result.status is ExecutionStatus.TIMEOUT
        assert not result.usable
        assert not result.crashed

    def test_predicate_collection_can_be_disabled(self):
        module = compile_source("""
        int X; int Y;
        int main() { X = 1; int r = Y; return r; }
        """)
        with_preds = run_once(module, "pso", flush_prob=0.0, seed=1)
        assert with_preds.predicates
        model = make_model("pso")
        sched = FlushDelayScheduler(seed=1, flush_prob=0.0)
        without = run_execution(module, model, sched,
                                collect_predicates=False)
        assert without.predicates == []

    def test_model_reuse_across_executions(self):
        module = compile_source("int X; int main() { X = 1; return X; }")
        model = make_model("pso")
        for seed in range(5):
            result = run_execution(
                module, model, FlushDelayScheduler(seed=seed))
            assert result.status is ExecutionStatus.OK


class TestVMEdgeCases:
    def test_join_on_unknown_thread(self):
        m = Module()
        m.add_global(GlobalVar("X"))
        b = IRBuilder(m, "main")
        b.join(Reg("nonexistent"))  # reads 0... which is main itself
        b.ret()
        b.finish()
        vm = make_vm(m, make_model("sc"))
        # Joining yourself can never complete: scheduler sees no enabled
        # threads -> deadlock.
        with pytest.raises(DeadlockError):
            FlushDelayScheduler(seed=0).run(vm)

    def test_stepping_finished_thread_rejected(self):
        module = compile_source("int main() { return 0; }")
        vm = make_vm(module, make_model("sc"))
        while not vm.all_finished():
            vm.step(0)
        with pytest.raises(InterpreterError):
            vm.step(0)

    def test_entry_args_bound(self):
        module = compile_source("int main(int a, int b) { return a - b; }")
        vm = make_vm(module, make_model("sc"), entry_args=(10, 4))
        while not vm.all_finished():
            vm.step(0)
        assert vm.threads[0].result == 6

    def test_entry_arity_mismatch(self):
        module = compile_source("int main(int a) { return a; }")
        with pytest.raises(InterpreterError):
            make_vm(module, make_model("sc"), entry_args=())

    def test_peek_returns_next_instruction(self):
        module = compile_source("int G; int main() { G = 1; return 0; }")
        vm = make_vm(module, make_model("sc"))
        first = vm.peek(0)
        assert first is module.function("main").body[0]

    def test_tids_with_pending(self):
        module = compile_source("int G; int main() { G = 1; return 0; }")
        vm = make_vm(module, make_model("pso"))
        vm.step(0)  # const
        vm.step(0)  # store (buffered)
        assert vm.tids_with_pending() == [0]
        vm.flush_one(0)
        assert vm.tids_with_pending() == []

"""Unit tests for the IR optimisation passes."""

import pytest

from repro.algorithms import ALGORITHMS
from repro.ir import Const, GlobalVar, IRBuilder, Module, Reg, Sym
from repro.ir import instructions as ins
from repro.ir.passes import (
    fold_constants,
    optimize_module,
    remove_dead_registers,
    remove_unreachable,
)
from repro.ir.verifier import verify_module
from repro.memory import make_model
from repro.minic import compile_source
from repro.vm import make_vm

from tests.reference.round_robin import RoundRobinScheduler


def run_main(module, entry="main"):
    vm = make_vm(module, make_model("sc"), entry=entry)
    RoundRobinScheduler().run(vm)
    return vm.threads[0].result


class TestConstantFolding:
    def test_binop_folded(self):
        m = Module()
        b = IRBuilder(m, "f")
        b.const(Reg("a"), 2)
        b.const(Reg("b"), 3)
        b.binop(Reg("c"), "mul", Reg("a"), Reg("b"))
        b.ret(Reg("c"))
        fn = b.finish()
        assert fold_constants(fn) >= 1
        folded = fn.body[2]
        assert isinstance(folded, ins.ConstInstr)
        assert folded.value == 6

    def test_division_by_zero_not_folded(self):
        m = Module()
        b = IRBuilder(m, "f")
        b.const(Reg("z"), 0)
        b.binop(Reg("c"), "div", Const(5), Reg("z"))
        b.ret(Reg("c"))
        fn = b.finish()
        fold_constants(fn)
        assert isinstance(fn.body[1], ins.BinOp)

    def test_constant_branch_becomes_unconditional(self):
        src = "int main() { if (1) { return 7; } return 8; }"
        module = compile_source(src, optimize=True)
        body = module.function("main").body
        assert not any(isinstance(i, ins.Cbr) for i in body)
        assert run_main(module) == 7

    def test_knowledge_killed_by_redefinition(self):
        m = Module()
        m.add_global(GlobalVar("X"))
        b = IRBuilder(m, "f")
        b.const(Reg("a"), 2)
        b.load(Reg("a"), Sym("X"))  # 'a' is no longer the constant 2
        b.binop(Reg("c"), "add", Reg("a"), Const(1))
        b.ret(Reg("c"))
        fn = b.finish()
        fold_constants(fn)
        assert isinstance(fn.body[2], ins.BinOp)

    def test_loads_never_folded(self):
        src = "int G = 5; int main() { return G + 1; }"
        module = compile_source(src, optimize=True)
        assert any(i.is_load() for i in module.function("main").body)


class TestUnreachable:
    def test_code_after_constant_branch_removed(self):
        src = """
        int main() {
          if (1) { return 1; }
          return 2;
        }
        """
        module = compile_source(src, optimize=True)
        rets = [i for i in module.function("main").body
                if isinstance(i, ins.Ret)]
        # The 'return 2' path is unreachable and eliminated.
        assert run_main(module) == 1
        assert len(rets) <= 2  # 'return 1' + builder's implicit return

    def test_reachable_code_preserved(self):
        src = "int main(int c) { if (c) { return 1; } return 2; }"
        module = compile_source(src, optimize=True)
        vm = make_vm(module, make_model("sc"), entry="main", entry_args=(0,))
        RoundRobinScheduler().run(vm)
        assert vm.threads[0].result == 2


class TestDeadRegisters:
    def test_unused_chain_removed(self):
        m = Module()
        b = IRBuilder(m, "f")
        b.const(Reg("a"), 1)
        b.binop(Reg("b"), "add", Reg("a"), Const(1))  # b unused
        b.ret(Const(0))
        fn = b.finish()
        removed = remove_dead_registers(fn)
        assert removed == 2  # both 'b' and then 'a' die
        assert len(fn.body) == 1

    def test_shared_stores_never_removed(self):
        src = """
        int G;
        int main() { G = 5; return 0; }
        """
        module = compile_source(src, optimize=True)
        assert any(i.is_store() for i in module.function("main").body)

    def test_branch_target_replaced_by_nop(self):
        m = Module()
        b = IRBuilder(m, "f")
        top = b.block_label("top")
        b.br(top)
        b.bind(top)
        b.const(Reg("dead"), 1)  # targeted by the branch, never read
        b.ret(Const(0))
        fn = b.finish()
        remove_dead_registers(fn)
        verify_module_single(m)
        target = fn.instr_at(fn.body[0].target)
        assert isinstance(target, ins.Nop)


def verify_module_single(m):
    verify_module(m)


class TestWholePrograms:
    @pytest.mark.parametrize("name", ["chase_lev", "msn_queue",
                                      "michael_allocator"])
    def test_optimized_benchmarks_verify(self, name):
        module = compile_source(ALGORITHMS[name].source, name,
                                optimize=True)
        verify_module(module)

    def test_optimization_shrinks_code(self):
        source = ALGORITHMS["chase_lev"].source
        plain = compile_source(source)
        optimized = compile_source(source, optimize=True)
        assert optimized.instruction_count() <= plain.instruction_count()

    def test_optimization_preserves_behaviour(self):
        bundle = ALGORITHMS["chase_lev"]
        extra = """
        int seqtest() {
          put(1); put(2); put(3);
          return take() * 100 + steal() * 10 + take();
        }
        """
        plain = compile_source(bundle.source + extra)
        optimized = compile_source(bundle.source + extra, optimize=True)
        assert run_main(plain, "seqtest") == run_main(optimized, "seqtest")

    def test_optimization_preserves_fence_inference(self):
        # The engine must find the same fence functions on optimized IR.
        from repro.spec import SequentialConsistencySpec, WSQDequeSpec
        from repro.synth import SynthesisConfig, SynthesisEngine

        bundle = ALGORITHMS["chase_lev"]
        module = compile_source(bundle.source, optimize=True)
        engine = SynthesisEngine(SynthesisConfig(
            memory_model="pso", flush_prob=0.2,
            executions_per_round=600, seed=7))
        result = engine.synthesize(
            module, SequentialConsistencySpec(WSQDequeSpec()),
            entries=bundle.entries, operations=bundle.operations)
        functions = {p.function for p in result.placements}
        assert "put" in functions

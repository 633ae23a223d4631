"""Tests for DOT export and VM coverage collection."""

from repro.algorithms import ALGORITHMS
from repro.ir.dot import cfg_to_dot, module_to_dot
from repro.memory import make_model
from repro.minic import compile_source
from repro.sched import FlushDelayScheduler
from repro.spec import MemorySafetySpec
from repro.synth import SynthesisConfig, SynthesisEngine
from repro.vm import make_vm
from repro.vm.driver import run_execution

from tests.reference.round_robin import RoundRobinScheduler


class TestDotExport:
    def test_function_dot_structure(self):
        module = compile_source(
            "int main(int c) { if (c) { return 1; } return 2; }")
        dot = cfg_to_dot(module.function("main"))
        assert dot.startswith('digraph "main"')
        assert dot.rstrip().endswith("}")
        assert "bb0 -> bb1" in dot or "bb0 -> bb2" in dot

    def test_module_dot_has_cluster_per_function(self):
        module = ALGORITHMS["ms2_queue"].compile()
        dot = module_to_dot(module)
        for fn_name in module.functions:
            assert 'label="%s"' % fn_name in dot

    def test_synthesized_fences_highlighted(self):
        source = """
        int D; int F;
        void r() { while (F == 0) {} assert(D == 1); }
        int main() { int t = fork(r); D = 1; F = 1; join(t); return 0; }
        """
        engine = SynthesisEngine(SynthesisConfig(
            memory_model="pso", flush_prob=0.3,
            executions_per_round=300, seed=3))
        result = engine.synthesize(compile_source(source),
                                   MemorySafetySpec())
        assert result.fence_count >= 1
        dot = cfg_to_dot(result.program.function("main"))
        assert "fillcolor" in dot

    def test_quotes_escaped(self):
        module = compile_source("int main() { return 0; }")
        dot = cfg_to_dot(module.function("main"), graph_name='a"b')
        assert '\\"' in dot.splitlines()[0]


class TestCoverage:
    def test_straight_line_coverage_complete(self):
        module = compile_source("int main() { int a = 1; return a; }")
        covered = set()
        vm = make_vm(module, make_model("sc"), coverage=covered)
        RoundRobinScheduler().run(vm)
        all_labels = {i.label for i in module.function("main").body}
        assert covered == all_labels

    def test_untaken_branch_not_covered(self):
        module = compile_source(
            "int main(int c) { if (c) { return 1; } return 2; }")
        covered = set()
        vm = make_vm(module, make_model("sc"), entry_args=(0,),
                     coverage=covered)
        RoundRobinScheduler().run(vm)
        all_labels = {i.label for i in module.function("main").body}
        assert covered < all_labels

    def test_coverage_accumulates_across_runs(self):
        module = compile_source(
            "int main(int c) { if (c) { return 1; } return 2; }")
        one_branch = set()
        vm = make_vm(module, make_model("sc"), entry_args=(0,),
                     coverage=one_branch)
        RoundRobinScheduler().run(vm)
        both_branches = set()
        for arg in (0, 1):
            vm = make_vm(module, make_model("sc"), entry_args=(arg,),
                         coverage=both_branches)
            RoundRobinScheduler().run(vm)
        assert one_branch < both_branches

    def test_driver_threads_coverage_through(self):
        module = compile_source("int main() { return 0; }")
        covered = set()
        run_execution(module, make_model("sc"),
                      FlushDelayScheduler(seed=0), coverage=covered)
        assert covered

    def test_no_coverage_by_default(self):
        module = compile_source("int main() { return 0; }")
        vm = make_vm(module, make_model("sc"))
        assert vm.coverage is None

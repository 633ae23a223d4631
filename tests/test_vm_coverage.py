"""Tests for VM coverage collection (the client coverage of paper §6.4)."""

from repro.memory import make_model
from repro.minic import compile_source
from repro.sched import FlushDelayScheduler
from repro.vm import make_vm
from repro.vm.driver import run_execution

from tests.reference.round_robin import RoundRobinScheduler


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

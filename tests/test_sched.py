"""Unit tests for the scheduler plug-ins."""

import pytest

from repro.memory import make_model
from repro.minic import compile_source
from repro.sched import FlushDelayScheduler
from repro.vm import ExecutionStatus, make_vm
from repro.vm.driver import run_execution

from tests.reference.round_robin import RoundRobinScheduler

MP_SOURCE = """
// Message passing: writer publishes DATA then FLAG; reader spins on FLAG.
int DATA;
int FLAG;
int OUT;

void reader() {
  while (FLAG == 0) {}
  OUT = DATA;
}

int main() {
  int t = fork(reader);
  DATA = 42;
  FLAG = 1;
  join(t);
  return OUT;
}
"""


def run_mp(model_name, seed, flush_prob):
    module = compile_source(MP_SOURCE)
    model = make_model(model_name)
    sched = FlushDelayScheduler(seed=seed, flush_prob=flush_prob)
    return run_execution(module, model, sched)


class TestFlushDelayScheduler:
    def test_validates_flush_prob(self):
        with pytest.raises(ValueError):
            FlushDelayScheduler(flush_prob=1.5)

    def test_deterministic_per_seed(self):
        module = compile_source(MP_SOURCE)
        results = []
        for _ in range(2):
            model = make_model("pso")
            sched = FlushDelayScheduler(seed=99, flush_prob=0.4)
            vm = make_vm(module, model)
            sched.run(vm)
            results.append((vm.steps, vm.memory.read(
                vm.memory.global_addr["OUT"])))
        assert results[0] == results[1]

    def test_spinning_reader_eventually_unblocked(self):
        # The writer finishes with FLAG still buffered; the scheduler must
        # flush buffers of finished/blocked threads or the reader spins
        # forever.
        for seed in range(5):
            res = run_mp("pso", seed=seed, flush_prob=0.3)
            assert res.status is ExecutionStatus.OK

    def test_message_passing_correct_under_tso(self):
        # TSO preserves store order: the reader can never see FLAG=1 but
        # stale DATA.  (This is the classic MP litmus test.)
        module = compile_source(MP_SOURCE)
        for seed in range(40):
            model = make_model("tso")
            sched = FlushDelayScheduler(seed=seed, flush_prob=0.2)
            vm = make_vm(module, model)
            sched.run(vm)
            out = vm.memory.read(vm.memory.global_addr["OUT"])
            assert out == 42

    def test_message_passing_breaks_under_pso(self):
        # PSO can commit FLAG before DATA: some schedule shows OUT == 0.
        module = compile_source(MP_SOURCE)
        seen = set()
        for seed in range(60):
            model = make_model("pso")
            sched = FlushDelayScheduler(seed=seed, flush_prob=0.3)
            vm = make_vm(module, model)
            sched.run(vm)
            seen.add(vm.memory.read(vm.memory.global_addr["OUT"]))
        assert 0 in seen, "PSO relaxation never observed"
        assert 42 in seen

    def test_por_does_not_change_results_of_sequential_code(self):
        src = "int main() { int s = 0; for (int i = 0; i < 9; i = i + 1) { s = s + i; } return s; }"
        module = compile_source(src)
        for por in (True, False):
            model = make_model("sc")
            vm = make_vm(module, model)
            FlushDelayScheduler(seed=1, por=por).run(vm)
            assert vm.threads[0].result == 36


class TestRoundRobinScheduler:
    def test_runs_to_completion(self):
        module = compile_source(MP_SOURCE)
        model = make_model("pso")
        vm = make_vm(module, model)
        RoundRobinScheduler(quantum=3).run(vm)
        assert vm.all_finished()
        assert vm.memory.read(vm.memory.global_addr["OUT"]) == 42

    def test_quantum_validation(self):
        with pytest.raises(ValueError):
            RoundRobinScheduler(quantum=0)

    def test_deterministic(self):
        module = compile_source(MP_SOURCE)
        steps = []
        for _ in range(2):
            model = make_model("tso")
            vm = make_vm(module, model)
            RoundRobinScheduler().run(vm)
            steps.append(vm.steps)
        assert steps[0] == steps[1]

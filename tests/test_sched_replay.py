"""Tests for schedule recording, replay, and violation witnesses."""

import pytest

from repro.memory import make_model
from repro.minic import compile_source
from repro.sched import (
    FlushDelayScheduler,
    ReplayScheduler,
    TracingScheduler,
    Witness,
)
from repro.spec import MemorySafetySpec
from repro.synth import SynthesisConfig, SynthesisEngine
from repro.vm import ExecutionStatus, make_vm
from repro.vm.driver import run_execution

MP_ASSERT = """
int DATA;
int FLAG;

void reader() {
  while (FLAG == 0) {}
  assert(DATA == 1);
}

int main() {
  int t = fork(reader);
  DATA = 1;
  FLAG = 1;
  join(t);
  return 0;
}
"""

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


def thread_results(vm):
    return tuple(vm.threads[tid].result for tid in sorted(vm.threads))


class TestTracingAndReplay:
    def test_trace_reproduces_results_exactly(self):
        module = compile_source(SB)
        for seed in range(20):
            tracer = TracingScheduler(seed=seed, flush_prob=0.3)
            vm1 = make_vm(module, make_model("pso"))
            tracer.run(vm1)
            vm2 = make_vm(module, make_model("pso"))
            ReplayScheduler(tracer.trace).run(vm2)
            assert thread_results(vm1) == thread_results(vm2)
            assert vm1.memory.cells == vm2.memory.cells

    def test_trace_reproduces_violations(self):
        module = compile_source(MP_ASSERT)
        # Find a violating schedule first.
        violating_trace = None
        for seed in range(200):
            tracer = TracingScheduler(seed=seed, flush_prob=0.3)
            model = make_model("pso")
            result = run_execution(module, model, tracer)
            if result.status is ExecutionStatus.ASSERTION_VIOLATION:
                violating_trace = tracer.trace
                break
        assert violating_trace is not None, "no violation found to replay"
        model = make_model("pso")
        replayed = run_execution(module, model,
                                 ReplayScheduler(violating_trace))
        assert replayed.status is ExecutionStatus.ASSERTION_VIOLATION

    def test_trace_records_flushes(self):
        module = compile_source(SB)
        tracer = TracingScheduler(seed=1, flush_prob=0.5)
        vm = make_vm(module, make_model("pso"))
        tracer.run(vm)
        kinds = {event[0] for event in tracer.trace}
        assert "step" in kinds

    def test_replay_tail_finishes_short_traces(self):
        module = compile_source(SB)
        vm = make_vm(module, make_model("pso"))
        ReplayScheduler([]).run(vm)  # empty trace: tail finishes the run
        assert vm.all_finished()

    def test_untraced_scheduler_keeps_no_trace(self):
        scheduler = FlushDelayScheduler(seed=0)
        assert scheduler.trace is None


class TestWitnesses:
    def test_engine_collects_witnesses(self):
        module = compile_source(MP_ASSERT)
        engine = SynthesisEngine(SynthesisConfig(
            memory_model="pso", flush_prob=0.3,
            executions_per_round=300, seed=3))
        result = engine.synthesize(module, MemorySafetySpec())
        assert result.witnesses
        witness = result.witnesses[0]
        assert witness.entry == "main"
        assert "assert" in witness.message

    def test_witness_reproduces_on_original_program(self):
        module = compile_source(MP_ASSERT)
        engine = SynthesisEngine(SynthesisConfig(
            memory_model="pso", flush_prob=0.3,
            executions_per_round=300, seed=3))
        result = engine.synthesize(module, MemorySafetySpec())
        witness = result.witnesses[0]
        rerun = run_execution(module, make_model("pso"),
                              witness.scheduler(), entry=witness.entry)
        assert rerun.status is ExecutionStatus.ASSERTION_VIOLATION

    def test_witness_no_longer_violates_repaired_program(self):
        module = compile_source(MP_ASSERT)
        engine = SynthesisEngine(SynthesisConfig(
            memory_model="pso", flush_prob=0.3,
            executions_per_round=300, seed=3))
        result = engine.synthesize(module, MemorySafetySpec())
        assert result.outcome.value == "clean"
        for witness in result.witnesses[:3]:
            rerun = run_execution(result.program, make_model("pso"),
                                  witness.scheduler(), entry=witness.entry)
            # The schedule diverges once fences change flush timing; the
            # key guarantee is that no violation recurs.
            assert rerun.status is ExecutionStatus.OK

    def test_witness_repr(self):
        witness = Witness("client0", 42, 0.3, "boom")
        assert "client0" in repr(witness)
        assert "42" in repr(witness)

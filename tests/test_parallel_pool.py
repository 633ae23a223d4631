"""Unit tests for the parallel execution backends."""

import os
import pickle
import signal

import pytest

from repro.memory import make_model
from repro.minic import compile_source
from repro.parallel import (
    ExecutionSummary,
    ProcessPool,
    SerialPool,
    make_pool,
    resolve_workers,
    summarize_execution,
)
from repro.sched.flush_random import FlushDelayScheduler
from repro.spec import MemorySafetySpec
from repro.synth import SynthesisConfig, SynthesisEngine
from repro.vm.driver import run_execution

MP = """
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


def make_jobs(n, entry="main", base_seed=0):
    return [(i, entry, base_seed + i) for i in range(n)]


def assert_no_children():
    """Every worker this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class DyingSpec(MemorySafetySpec):
    """Kills the worker that checks an execution."""

    def check(self, result):
        os.kill(os.getpid(), signal.SIGKILL)


class RaisingSpec(MemorySafetySpec):
    def check(self, result):
        raise ValueError("spec failed in a worker")


class TestExecutionSummary:
    def run_one(self, seed=2):
        module = compile_source(MP)
        result = run_execution(module, make_model("pso"),
                               FlushDelayScheduler(seed=seed,
                                                   flush_prob=0.3))
        violation = MemorySafetySpec().check(result) if result.usable \
            else None
        return summarize_execution(5, "main", seed, result, violation)

    def test_pickle_roundtrip(self):
        summary = self.run_one()
        clone = pickle.loads(pickle.dumps(summary))
        assert clone == summary
        assert clone.index == 5
        assert clone.entry == "main"
        assert clone.seed == 2

    def test_predicate_objects_roundtrip(self):
        summary = self.run_one()
        preds = summary.predicate_objects()
        assert len(preds) == len(summary.predicates)
        for pred, (l, k, kind) in zip(preds, summary.predicates):
            assert (pred.store_label, pred.access_label) == (l, k)
            assert pred.kind.value == kind

    def test_usable_flag(self):
        summary = self.run_one()
        assert summary.usable == (summary.status not in
                                  ("timeout", "deadlock"))


class TestResolveWorkers:
    def test_none_is_serial(self):
        assert resolve_workers(None) == 0

    def test_zero_is_cpu_count(self):
        assert resolve_workers(0) >= 1

    def test_positive_passthrough(self):
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_make_pool_types(self):
        assert isinstance(make_pool(None, "pso", 0.3), SerialPool)
        pool = make_pool(2, "pso", 0.3)
        assert isinstance(pool, ProcessPool)
        pool.close()

    def test_no_fork_is_serial(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert isinstance(make_pool(2, "pso", 0.3), SerialPool)
        assert isinstance(make_pool(0, "pso", 0.3), SerialPool)


class TestSerialPool:
    def test_requires_broadcast(self):
        pool = SerialPool("pso", 0.3)
        with pytest.raises(RuntimeError):
            next(iter(pool.run(make_jobs(1))))

    def test_index_order_and_determinism(self):
        module = compile_source(MP)
        pool = SerialPool("pso", 0.3)
        pool.broadcast(module, MemorySafetySpec())
        first = list(pool.run(make_jobs(30)))
        second = list(pool.run(make_jobs(30)))
        assert [s.index for s in first] == list(range(30))
        assert first == second


class TestProcessPool:
    def test_interleaved_shares(self):
        # Worker k runs jobs[k::2]; the merge is in index order.
        module = compile_source(MP)
        with ProcessPool(2, "pso", 0.3) as pool:
            pool.broadcast(module, MemorySafetySpec())
            for n in (33, 1, 0):
                got = list(pool.run(make_jobs(n)))
                assert [s.index for s in got] == list(range(n))
                workers = [s.worker for s in got]
                for k in range(2):
                    assert len(set(workers[k::2])) <= 1
                if n > 1:
                    assert workers[0] != workers[1]

    def test_matches_serial(self):
        module = compile_source(MP)
        spec = MemorySafetySpec()
        jobs = make_jobs(40)
        serial = SerialPool("pso", 0.3)
        serial.broadcast(module, spec)
        expected = list(serial.run(jobs))
        with ProcessPool(2, "pso", 0.3) as pool:
            pool.broadcast(module, spec)
            got = list(pool.run(jobs))
        assert got == expected
        assert any(s.violation for s in got)  # the workload does violate

    def test_rebroadcast_is_picked_up(self):
        # After a broadcast of a repaired module, workers must run the new
        # code: fence the MP program by hand and expect zero violations.
        module = compile_source(MP)
        fenced = compile_source(MP.replace("DATA = 1;",
                                           "DATA = 1; fence();"))
        jobs = make_jobs(40)
        with ProcessPool(2, "pso", 0.3) as pool:
            pool.broadcast(module, MemorySafetySpec())
            before = list(pool.run(jobs))
            pool.broadcast(fenced, MemorySafetySpec())
            after = list(pool.run(jobs))
        assert any(s.violation for s in before)
        assert not any(s.violation for s in after)

    def test_early_close_keeps_pool_usable(self):
        module = compile_source(MP)
        with ProcessPool(2, "pso", 0.3) as pool:
            pool.broadcast(module, MemorySafetySpec())
            summaries = pool.run(make_jobs(40))
            seen = []
            for summary in summaries:
                seen.append(summary)
                if len(seen) >= 3:
                    break
            summaries.close()
            assert [s.index for s in seen] == [0, 1, 2]
            # The pool survives an early close and serves the next round.
            rest = list(pool.run(make_jobs(10)))
            assert [s.index for s in rest] == list(range(10))

    def test_empty_round(self):
        module = compile_source(MP)
        with ProcessPool(2, "pso", 0.3) as pool:
            pool.broadcast(module, MemorySafetySpec())
            assert list(pool.run([])) == []

    @pytest.mark.parametrize("spec,status", [(DyingSpec(), -signal.SIGKILL),
                                             (RaisingSpec(), 1)],
                             ids=["dies", "raises"])
    def test_worker_failure_is_an_error(self, spec, status, capfd):
        module = compile_source(MP)
        with ProcessPool(2, "pso", 0.3) as pool:
            pool.broadcast(module, spec)
            with pytest.raises(RuntimeError,
                               match="exited with status %d$" % status):
                list(pool.run(make_jobs(10)))
            assert_no_children()
            # The next round forks fresh workers.
            pool.broadcast(module, MemorySafetySpec())
            got = list(pool.run(make_jobs(10)))
            assert [s.index for s in got] == list(range(10))
        assert_no_children()
        if status == 1:
            assert "spec failed in a worker" in capfd.readouterr().err

    def test_dead_worker_between_rounds(self):
        module = compile_source(MP)
        with ProcessPool(2, "pso", 0.3) as pool:
            pool.broadcast(module, MemorySafetySpec())
            list(pool.run(make_jobs(4)))
            os.kill(pool._children[1][0], signal.SIGKILL)
            with pytest.raises(RuntimeError, match="status -9$"):
                list(pool.run(make_jobs(4)))
            assert_no_children()


class TestNoLeakedWorkers:
    def engine(self):
        return SynthesisEngine(SynthesisConfig(
            memory_model="pso", flush_prob=0.3, executions_per_round=40,
            max_rounds=3, seed=3, workers=2))

    def test_after_synthesize(self):
        self.engine().synthesize(compile_source(MP), MemorySafetySpec())
        assert_no_children()

    def test_after_early_stop(self):
        stats = self.engine().test_program(
            compile_source(MP), MemorySafetySpec(), executions=200,
            stop_on_first_violation=True)
        assert stats.violations == 1
        assert_no_children()

    def test_after_early_closed_run(self):
        with ProcessPool(2, "pso", 0.3) as pool:
            pool.broadcast(compile_source(MP), MemorySafetySpec())
            summaries = pool.run(make_jobs(40))
            for _ in range(3):
                next(summaries)
            summaries.close()
            assert_no_children()

    def test_after_double_close(self):
        pool = ProcessPool(2, "pso", 0.3)
        pool.broadcast(compile_source(MP), MemorySafetySpec())
        list(pool.run(make_jobs(4)))
        pool.close()
        pool.close()
        assert_no_children()

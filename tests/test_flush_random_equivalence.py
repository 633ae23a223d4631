"""The flush-delaying scheduler's decision loop against its reference.

:class:`repro.sched.flush_random.FlushDelayScheduler` runs one inlined
decision loop; ``tests/reference/flush_random.py`` keeps the loop it
replaced (``enabled_tids``/``tids_with_pending``, ``rng.randrange`` and
one helper per action).  For every input, memory model, flush
probability and POR setting, on both VM backends, the two must make the
same executions (status, steps, flushes, error, thread results,
predicates, history), leave their RNGs in the same state, and record the
same ``TracingScheduler`` trace.
"""

import glob
import os
import random

import pytest

from repro.algorithms import ALGORITHMS
from repro.litmus import LITMUS_TESTS
from repro.memory.models import make_model
from repro.minic import compile_source
from repro.sched.flush_random import FlushDelayScheduler
from repro.sched.replay import TracingScheduler
from repro.vm.driver import run_execution
from tests.reference.flush_random import ReferenceFlushDelayScheduler
from tests.test_fuzz_oracles import FenceDroppingPSOModel, LifoFlushTSOModel

MODELS = ("sc", "tso", "pso")
FLUSH_PROBS = (0.0, 0.1, 0.5, 1.0)
CORPUS_FILES = sorted(glob.glob(
    os.path.join(os.path.dirname(__file__), "corpus", "*.c")))
#: Enough for every input to finish; a run that does hit it must time
#: out identically on both loops.
MAX_STEPS = 20_000

#: Broken models from the oracle tests: their flush/fence overrides must
#: see the same calls from both loops.
BROKEN = (LifoFlushTSOModel, FenceDroppingPSOModel)


def _fingerprint(result):
    history = tuple(
        (op.tid, op.name, tuple(op.args), op.result, op.call_seq,
         op.ret_seq)
        for op in result.history)
    predicates = tuple(
        (p.store_label, p.access_label, p.kind.value)
        for p in result.predicates)
    return (result.status.value, result.steps, result.flushes, result.error,
            result.thread_results, predicates, history)


def _run(module, model_factory, scheduler, entry, operations):
    result = run_execution(module, model_factory(), scheduler, entry=entry,
                           operations=operations, max_steps=MAX_STEPS)
    return _fingerprint(result), scheduler.rng.getstate()


def assert_loops_equal(module, model_factory, entry="main", operations=(),
                       seed=0):
    """Both loops agree under every flush probability and POR setting."""
    for flush_prob in FLUSH_PROBS:
        for por in (True, False):
            where = (entry, flush_prob, por, seed)
            ref_trace = []
            expected = _run(module, model_factory,
                            ReferenceFlushDelayScheduler(
                                seed=seed, flush_prob=flush_prob, por=por,
                                trace=ref_trace),
                            entry, operations)
            plain = _run(module, model_factory,
                         FlushDelayScheduler(seed=seed,
                                             flush_prob=flush_prob, por=por),
                         entry, operations)
            assert plain == expected, where
            tracing = TracingScheduler(seed=seed, flush_prob=flush_prob,
                                       por=por)
            traced = _run(module, model_factory, tracing, entry, operations)
            assert traced == expected, where
            assert tracing.trace == ref_trace, where
            seed += 1


def _factory(model_name):
    return lambda: make_model(model_name)


BACKENDS = [pytest.param(True, id="compiled"),
            pytest.param(False, id="interpreted")]


@pytest.mark.parametrize("compiled", BACKENDS)
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_table2_bundles(reference_vm, compiled, name):
    with reference_vm(not compiled):
        bundle = ALGORITHMS[name]
        module = bundle.compile()
        for model in MODELS:
            for index, entry in enumerate(bundle.entries):
                assert_loops_equal(module, _factory(model), entry=entry,
                                   operations=bundle.operations,
                                   seed=100 * index)


@pytest.mark.parametrize("compiled", BACKENDS)
@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
def test_litmus_catalog(reference_vm, compiled, name):
    with reference_vm(not compiled):
        module = LITMUS_TESTS[name].compile()
        for model in MODELS:
            assert_loops_equal(module, _factory(model))
        for broken in BROKEN:
            assert_loops_equal(module, broken)


@pytest.mark.parametrize("compiled", BACKENDS)
@pytest.mark.parametrize("path", CORPUS_FILES,
                         ids=[os.path.basename(p) for p in CORPUS_FILES])
def test_corpus(reference_vm, compiled, path):
    with reference_vm(not compiled):
        with open(path) as handle:
            module = compile_source(handle.read(), os.path.basename(path))
        for model in MODELS:
            assert_loops_equal(module, _factory(model))
        for broken in BROKEN:
            assert_loops_equal(module, broken)


# ----------------------------------------------------------------------
# The inlined index draw equals Random.randrange, draw for draw


class _StubModel:
    name = "tso"

    def __init__(self, vm, pending):
        self.vm = vm
        self._buffers = pending

    def flush_one(self, tid, addr=None):
        self.vm.decide(tid)
        return True


class _StubVM:
    """Just enough VM for the decision loop: a fixed set of *n* runnable
    (or pending) threads, for *decisions* decisions."""

    def __init__(self, n, decisions, pending):
        tids = set(range(n))
        self._runnable = set() if pending else tids
        self._blocked_join = {}
        self.model = _StubModel(self, tids if pending else set())
        self.left = decisions
        self.picked = []

    def decide(self, tid):
        self.picked.append(tid)
        self.left -= 1
        if not self.left:
            self._runnable.clear()
            self.model._buffers.clear()

    def step(self, tid):
        self.decide(tid)

    def run_local(self, tid, budget):
        return 0

    def all_finished(self):
        return True

    def drain_all(self):
        pass


@pytest.mark.parametrize("pending", [False, True],
                         ids=["step", "flush"])
@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_index_draw_matches_randrange(pending, seed):
    """A step picks among n > 1 enabled threads without a draw for
    n == 1; a flush (no thread enabled) draws for every n, 1 included —
    both exactly as ``sorted(ids)[rng.randrange(n)]`` would."""
    decisions = 50
    for n in range(1, 65):
        vm = _StubVM(n, decisions, pending)
        scheduler = FlushDelayScheduler(seed=seed * 1000 + n)
        scheduler.run(vm)
        rng = random.Random(seed * 1000 + n)
        if n == 1 and not pending:
            expected = [0] * decisions
        else:
            expected = [rng.randrange(n) for _ in range(decisions)]
        assert vm.picked == expected, n
        assert scheduler.rng.getstate() == rng.getstate(), n

"""The determinism contract: serial and parallel backends are equivalent.

The engine merges execution summaries in execution-index order, so the
``SynthesisResult`` — outcome, fence locations, per-round violation
counts, example messages, witnesses, clause order, chosen minimal repair
— must be byte-identical no matter how many worker processes ran the
rounds.  These tests assert that over several program/spec/seed
combinations, for both ``synthesize`` and ``test_program``.
"""

import pytest

from repro.ir.printer import format_module
from repro.minic import compile_source
from repro.spec import MemorySafetySpec
from repro.synth import SynthesisConfig, SynthesisEngine

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

SB_ASSERT = """
int X; int Y;
int r1; int r2;

void t1() {
  X = 1;
  r1 = Y;
}

int main() {
  int t = fork(t1);
  Y = 1;
  r2 = X;
  join(t);
  assert(r1 == 1 || r2 == 1);
  return 0;
}
"""

def _chase_lev():
    """The paper's Chase-Lev WSQ under linearizability: a real workload
    with multiple client entries and history checking in the workers."""
    from repro.algorithms import ALGORITHMS

    bundle = ALGORITHMS["chase_lev"]
    return (bundle.compile(), bundle.spec("lin"), bundle.entries,
            bundle.operations)


def _minic(src, name, spec_factory, operations):
    return lambda: (compile_source(src, name), spec_factory(), ("main",),
                    operations)


#: (name, workload factory, model, flush_prob, seed); each factory returns
#: (module, spec, entries, operations).
COMBOS = [
    ("mp_pso", _minic(MP_ASSERT, "mp", MemorySafetySpec, ()),
     "pso", 0.3, 3),
    ("sb_tso", _minic(SB_ASSERT, "sb", MemorySafetySpec, ()),
     "tso", 0.1, 5),
    ("wsq_lin_pso", _chase_lev, "pso", 0.2, 11),
]


def config(model, flush_prob, seed, workers, **kw):
    return SynthesisConfig(
        memory_model=model, flush_prob=flush_prob,
        executions_per_round=120, max_rounds=6, seed=seed,
        workers=workers, **kw)


def round_signature(result):
    return [(r.index, r.executions, r.violations, r.unfixable,
             r.discarded, r.distinct_predicates, r.clauses,
             r.example_violation,
             [(w.entry, w.seed, w.flush_prob, w.por, w.message)
              for w in r.witnesses],
             [(p.fence_label, p.function, p.kind, p.location())
              for p in r.inserted])
            for r in result.rounds]


def full_signature(result):
    return (result.outcome, result.fence_locations(),
            result.total_executions, result.total_violations,
            round_signature(result), format_module(result.program))


@pytest.mark.parametrize(
    "name,workload,model,flush_prob,seed",
    COMBOS, ids=[c[0] for c in COMBOS])
def test_synthesize_serial_equals_parallel(name, workload, model,
                                           flush_prob, seed):
    results = {}
    violations = 0
    for workers in (None, 2):
        module, spec, entries, operations = workload()
        engine = SynthesisEngine(config(model, flush_prob, seed, workers))
        results[workers] = engine.synthesize(
            module, spec, entries=entries, operations=operations)
        violations = results[workers].total_violations
    assert full_signature(results[None]) == full_signature(results[2])
    assert violations > 0  # the combo must actually exercise the merge


@pytest.mark.parametrize(
    "name,workload,model,flush_prob,seed",
    COMBOS, ids=[c[0] for c in COMBOS])
def test_check_serial_equals_parallel(name, workload, model, flush_prob,
                                      seed):
    stats = {}
    for workers in (None, 2):
        module, spec, entries, operations = workload()
        engine = SynthesisEngine(config(model, flush_prob, seed, workers))
        stats[workers] = engine.test_program(
            module, spec, entries=entries, operations=operations,
            executions=150)
    assert stats[None] == stats[2]
    assert stats[None].runs == 150


def test_early_stop_serial_equals_parallel():
    module = compile_source(MP_ASSERT)
    stats = {}
    for workers in (None, 2):
        engine = SynthesisEngine(config("pso", 0.3, 3, workers))
        stats[workers] = engine.test_program(
            module, MemorySafetySpec(), executions=200,
            stop_on_first_violation=True)
    # Early stop is decided in index order, so both backends stop at the
    # same execution with the same example message.
    assert stats[None] == stats[2]
    assert stats[None].violations == 1
    assert stats[None].runs < 200


def test_workers_zero_uses_cpu_count_backend():
    module = compile_source(MP_ASSERT)
    serial = SynthesisEngine(config("pso", 0.3, 3, None)).synthesize(
        module, MemorySafetySpec())
    auto = SynthesisEngine(config("pso", 0.3, 3, 0)).synthesize(
        module, MemorySafetySpec())
    assert full_signature(serial) == full_signature(auto)

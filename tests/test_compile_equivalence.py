"""Differential validation of the closure-compiled VM backend.

:class:`repro.vm.compile.CompiledVM` must be observationally identical to
the generic interpreter in ``tests/reference/interp_vm.py`` — same
outcomes, same operation histories, same ``avoid(p)`` predicates, same
step/seq/flush counters, same coverage sets, and (through the engine) the
same synthesized fences.  The interpreter is the audited reference; these
tests are what make the compiled backend trustworthy.  Each comparison
runs the same code twice, once inside a ``reference_vm`` block (every
``make_vm`` builds the interpreter) and once outside it.

Tier-1 runs every test here, on every supported Python.  The full sweep
(whole litmus catalog, corpus reproducers, fresh fuzz programs per
model) is ``slow``-marked; ``-m "not slow"`` leaves it out for a quick
loop.
"""

import glob
import os

import pytest

from repro.fuzz.generator import ProgramGenerator
from repro.ir.instructions import (
    BINARY_OPS,
    UNARY_OPS,
    BinOp,
    FenceKind,
    Store,
)
from repro.ir.passes.fences import insert_fence_after
from repro.litmus import LITMUS_TESTS, thread_results
from repro.memory.models import make_model
from repro.minic import CompileError, compile_source
from repro.minic.lower import _BINOP_MAP, _UNOP_MAP
from repro.sched import explorer
from repro.sched.explorer import explore
from repro.sched.flush_random import FlushDelayScheduler
from repro.spec import MemorySafetySpec
from repro.synth import SynthesisConfig, SynthesisEngine
from repro.vm import driver
from repro.vm.compile import (
    BINOP_FN,
    COMPILE_STATS,
    UNOP_FN,
    CompiledVM,
    code_for,
    compile_stats_delta,
)
from repro.vm.driver import run_execution, run_once
from repro.vm.errors import InterpreterError

from tests.reference.interp_vm import InterpVM, _apply_binop, _apply_unop

MODELS = ["sc", "tso", "pso"]
FAST_LITMUS = ["sb", "mp", "coww", "sb_one_fence"]
CORPUS_FILES = sorted(glob.glob(
    os.path.join(os.path.dirname(__file__), "corpus", "*.c")))

#: Scheduler seeds per program for execution-level differentials.
EXEC_SEEDS = 8
#: Fresh fuzz programs per memory model for the slow sweep.
FUZZ_SEEDS = 10

SB_SOURCE = """
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

OP_SOURCE = """
int X;
int bump(int n) { X = X + n; return X; }
int main() {
  int a = bump(2);
  int b = bump(3);
  return a + b;
}
"""

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


# ----------------------------------------------------------------------
# Fingerprints

def _result_fingerprint(result):
    """Everything observable about one execution, as plain tuples."""
    history = tuple(
        (op.tid, op.name, tuple(op.args), op.result, op.call_seq,
         op.ret_seq)
        for op in result.history)
    predicates = tuple(
        (p.store_label, p.access_label, p.kind.value)
        for p in result.predicates)
    return (result.status.value, result.error, result.steps,
            result.flushes, result.thread_results, predicates, history)


def assert_executions_equivalent(reference_vm, module, model_name,
                                 operations=(), seeds=range(EXEC_SEEDS),
                                 flush_prob=0.4):
    """Seed-for-seed, the two backends produce identical executions."""
    for seed in seeds:
        prints = []
        for reference in (True, False):
            with reference_vm(reference):
                scheduler = FlushDelayScheduler(seed=seed,
                                                flush_prob=flush_prob)
                coverage = set()
                result = run_execution(
                    module, make_model(model_name), scheduler,
                    operations=operations, coverage=coverage,
                    max_steps=20_000)
                prints.append((_result_fingerprint(result),
                               frozenset(coverage)))
        assert prints[0] == prints[1], (model_name, seed)


def assert_explorations_equivalent(reference_vm, module, model_name,
                                   max_paths=60_000, max_steps=2_000):
    """Exhaustive enumeration agrees path-for-path across backends."""
    runs = []
    for reference in (True, False):
        with reference_vm(reference):
            runs.append(explore(module, model_name,
                                outcome_fn=thread_results,
                                max_paths=max_paths, max_steps=max_steps))
    base, new = runs
    assert new.complete == base.complete, model_name
    assert new.outcomes == base.outcomes, model_name
    assert new.violations == base.violations, model_name
    assert new.paths == base.paths, model_name


# ----------------------------------------------------------------------
# Fast subset (tier-1)

def test_reference_vm_rebinds_every_make_vm(reference_vm):
    module = compile_source(SB_SOURCE, "sb")
    for reference, cls in ((True, InterpVM), (False, CompiledVM)):
        with reference_vm(reference):
            for binding in (driver.make_vm, explorer.make_vm):
                assert type(binding(module, make_model("sc"))) is cls


#: Operands for the operator tables: negative, zero and positive, so
#: every sign combination and every zero divisor is covered.
OPERANDS = (-9, -7, -2, -1, 0, 1, 2, 3, 7, 64)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InterpreterError, ValueError) as exc:  # negative shift counts
        return type(exc)


def _const_outcome(expr):
    """What ``main`` returns when it returns the MiniC constant *expr*
    (``const`` declarations are evaluated at compile time)."""
    source = "const C = %s; int main() { return C; }" % expr
    try:
        module = compile_source(source, "const")
    except (CompileError, ValueError) as exc:  # negative shift counts
        return type(exc)
    return run_once(module).thread_results[0]


def _const_expected(fn, *args):
    """The reference outcome, with a zero divisor reported at compile
    time."""
    outcome = _outcome(fn, *args)
    return CompileError if outcome is InterpreterError else outcome


def test_operator_tables_match_reference():
    """The compiler's operator tables agree with the reference
    interpreter's evaluation on every operator, and so does MiniC
    ``const`` evaluation, which evaluates with the same tables."""
    assert set(BINOP_FN) == BINARY_OPS
    assert set(UNOP_FN) == UNARY_OPS
    for op in sorted(BINARY_OPS):
        for a in OPERANDS:
            for b in OPERANDS:
                expected = _outcome(_apply_binop, op, a, b)
                assert _outcome(BINOP_FN[op], a, b) == expected, (op, a, b)
    for op in ("div", "mod"):
        for a in OPERANDS:
            assert _outcome(_apply_binop, op, a, 0) is InterpreterError
            assert _outcome(BINOP_FN[op], a, 0) is InterpreterError
    for op in sorted(UNARY_OPS):
        for a in OPERANDS:
            assert _outcome(UNOP_FN[op], a) == _outcome(_apply_unop, op, a)
    for c_op, op in sorted(_BINOP_MAP.items()):
        for a in OPERANDS:
            for b in OPERANDS:
                expected = _const_expected(_apply_binop, op, a, b)
                assert _const_outcome("(%d) %s (%d)" % (a, c_op, b)) \
                    == expected, (c_op, a, b)
    for c_op, op in sorted(_UNOP_MAP.items()):
        for a in OPERANDS:
            assert _const_outcome("%s(%d)" % (c_op, a)) \
                == _const_expected(_apply_unop, op, a), (c_op, a)

@pytest.mark.parametrize("name", FAST_LITMUS)
@pytest.mark.parametrize("model", MODELS)
def test_litmus_executions_match(reference_vm, name, model):
    assert_executions_equivalent(reference_vm, LITMUS_TESTS[name].compile(),
                                 model)


@pytest.mark.parametrize("model", MODELS)
def test_operation_histories_match(reference_vm, model):
    """Recorded operations (call/ret seq numbers included) agree."""
    module = compile_source(OP_SOURCE, "ops")
    assert_executions_equivalent(reference_vm, module, model,
                                 operations=("bump",))


@pytest.mark.parametrize("name", FAST_LITMUS)
@pytest.mark.parametrize("model", MODELS)
def test_litmus_explorations_match(reference_vm, name, model):
    assert_explorations_equivalent(reference_vm, LITMUS_TESTS[name].compile(),
                                   model)


@pytest.mark.parametrize("model,source",
                         [pytest.param("tso", SB_SOURCE, id="tso-sb"),
                          pytest.param("pso", MP_ASSERT, id="pso-mp")])
def test_synthesized_fences_match(reference_vm, model, source):
    """The whole engine — rounds, clauses, placements — is backend-blind."""
    results = []
    for reference in (True, False):
        with reference_vm(reference):
            engine = SynthesisEngine(SynthesisConfig(
                memory_model=model, flush_prob=0.3,
                executions_per_round=200, max_rounds=6, seed=7))
            module = compile_source(source, "prog")
            result = engine.synthesize(module, MemorySafetySpec())
            results.append((
                result.outcome,
                result.total_executions,
                tuple((p.location(), p.kind.value)
                      for p in result.placements),
                tuple((r.violations, r.discarded, r.clauses,
                       tuple(f.fence_label for f in r.inserted))
                      for r in result.rounds),
            ))
    assert results[0] == results[1]


# ----------------------------------------------------------------------
# Compile-cache invalidation (fence insertion bumps body_version)

def test_fence_insertion_recompiles_only_repaired_function():
    module = compile_source(SB_SOURCE, "sb")
    main, t1 = module.functions["main"], module.functions["t1"]
    code_main, code_t1 = code_for(main), code_for(t1)

    before = COMPILE_STATS.snapshot()
    assert code_for(main) is code_main
    assert code_for(t1) is code_t1
    delta = compile_stats_delta(before)
    assert delta["cache_hits"] == 2
    assert delta["functions"] == 0

    version_main, version_t1 = main.body_version, t1.body_version
    store_label = next(i.label for i in main.body
                       if isinstance(i, Store))
    insert_fence_after(module, store_label, FenceKind.ST_ST)
    assert main.body_version == version_main + 1
    assert t1.body_version == version_t1

    before = COMPILE_STATS.snapshot()
    recompiled = code_for(main)
    assert recompiled is not code_main
    assert recompiled.version == main.body_version
    assert code_for(t1) is code_t1  # untouched function: cached closures
    delta = compile_stats_delta(before)
    assert delta["functions"] == 1
    assert delta["recompiles"] == 1
    assert delta["cache_hits"] == 1


def test_repaired_module_executes_identically(reference_vm):
    """After a fence lands, both backends see the repaired body."""
    module = compile_source(SB_SOURCE, "sb")
    store_label = next(i.label for i in module.functions["main"].body
                       if isinstance(i, Store))
    insert_fence_after(module, store_label, FenceKind.FULL)
    for model in MODELS:
        assert_executions_equivalent(reference_vm, module, model,
                                     seeds=range(4))


def test_compiled_backend_fuses_superinstructions():
    """Sanity: the microbenchmark claim rests on fusion happening."""
    module = compile_source(OP_SOURCE, "ops")
    vm = CompiledVM(module, make_model("sc"), max_steps=500)
    code = vm._code_for(module.functions["main"])
    assert any(n > 1 for n in code.ops)


DIV_ZERO = """
int Z;
int main() {
  int z = Z;
  int a = z + 1;
  int b = a / z;
  int c = b + 2;
  return c;
}
"""


def test_error_inside_fused_run_counts_the_whole_run():
    """The documented divergence: a division by zero inside a
    superinstruction leaves steps/seq counting the whole fused run (the
    burst keeps them in locals and writes them back on the way out),
    and the ip at the failing instruction."""
    module = compile_source(DIV_ZERO, "div")
    vm = CompiledVM(module, make_model("sc"), max_steps=500)
    frame = vm.threads[0].frames[-1]
    code = vm._code_for(module.functions["main"])
    vm.step(0)  # the load of Z
    run = code.ops[frame.ip]
    assert run > 1
    steps, seq = vm.steps, vm.seq
    with pytest.raises(InterpreterError, match="division by zero"):
        vm.run_local(0, 64)
    assert (vm.steps, vm.seq) == (steps + run, seq + run)
    assert isinstance(frame.fn.body[frame.ip], BinOp)
    assert frame.fn.body[frame.ip].binop == "div"


# ----------------------------------------------------------------------
# Full sweep (slow; tier-1 runs it, -m "not slow" skips it)

@pytest.mark.slow
@pytest.mark.parametrize("model", MODELS)
def test_sweep_litmus_catalog(reference_vm, model):
    for name in sorted(LITMUS_TESTS):
        module = LITMUS_TESTS[name].compile()
        assert_executions_equivalent(reference_vm, module, model,
                                     seeds=range(4))
        assert_explorations_equivalent(reference_vm, module, model,
                                       max_paths=120_000)


@pytest.mark.slow
@pytest.mark.parametrize("path", CORPUS_FILES,
                         ids=[os.path.basename(p) for p in CORPUS_FILES])
@pytest.mark.parametrize("model", MODELS)
def test_sweep_corpus(reference_vm, path, model):
    with open(path) as handle:
        module = compile_source(handle.read(), os.path.basename(path))
    assert_executions_equivalent(reference_vm, module, model, seeds=range(4))
    assert_explorations_equivalent(reference_vm, module, model)


@pytest.mark.slow
@pytest.mark.parametrize("model", MODELS)
def test_sweep_fuzz_programs(reference_vm, model):
    generator = ProgramGenerator()
    for seed in range(FUZZ_SEEDS):
        module = generator.generate(seed).compile()
        assert_executions_equivalent(reference_vm, module, model,
                                     seeds=range(4))
        assert_explorations_equivalent(reference_vm, module, model,
                                       max_paths=120_000, max_steps=4_000)

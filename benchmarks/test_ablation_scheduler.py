"""Ablation — how much does the flush-delaying demonic scheduler matter?

DESIGN.md calls out the scheduler as the paper's key exploration device.
This ablation compares violation-exposure rates on the de-fenced
Chase-Lev queue for:

* the tuned flush-delaying scheduler (the paper's);
* the same scheduler with near-eager flushing (prob 0.95) — approximating
  a naive random tester on an almost-SC machine;
* the deterministic round-robin scheduler with eager flushing (exposes
  nothing: relaxed behaviour needs delayed flushes).
"""

from common import format_table, write_result

from repro.algorithms import ALGORITHMS
from repro.memory import make_model
from repro.sched import FlushDelayScheduler
from repro.vm.driver import run_execution

from tests.reference.round_robin import RoundRobinScheduler

RUNS = 300
SEED = 5


def violations_with(scheduler_factory, name, model_name, kind):
    bundle = ALGORITHMS[name]
    module = bundle.compile()
    spec = bundle.spec(kind)
    model = make_model(model_name)
    violations = 0
    for i in range(RUNS):
        entry = bundle.entries[i % len(bundle.entries)]
        result = run_execution(module, model, scheduler_factory(i),
                               entry=entry, operations=bundle.operations)
        if result.usable and spec.check(result) is not None:
            violations += 1
    return violations


def test_scheduler_ablation(benchmark):
    cases = [
        ("chase_lev", "tso", "sc", 0.1),
        ("chase_lev", "pso", "sc", 0.2),
        ("msn_queue", "pso", "sc", 0.2),
    ]
    rows = []
    tuned_total = eager_total = rr_total = 0
    for (name, model_name, kind, tuned_prob) in cases:
        tuned = violations_with(
            lambda i, p=tuned_prob: FlushDelayScheduler(SEED + i, p),
            name, model_name, kind)
        eager = violations_with(
            lambda i: FlushDelayScheduler(SEED + i, 0.95),
            name, model_name, kind)
        round_robin = violations_with(
            lambda i: RoundRobinScheduler(quantum=3),
            name, model_name, kind)
        rows.append(["%s/%s/%s" % (name, model_name, kind),
                     tuned, eager, round_robin])
        tuned_total += tuned
        eager_total += eager
        rr_total += round_robin

    benchmark.pedantic(
        lambda: violations_with(
            lambda i: FlushDelayScheduler(SEED + i, 0.2),
            "chase_lev", "pso", "sc"),
        rounds=1, iterations=1)

    headers = ["case", "tuned flush-delay", "eager (p=0.95)",
               "round-robin"]
    text = ("Ablation — scheduler choice vs violations exposed "
            "(%d runs each)\n\n" % RUNS) + format_table(headers, rows) + "\n"
    write_result("ablation_scheduler.txt", text)

    # The tuned demonic scheduler must dominate both ablations.
    assert tuned_total > eager_total
    assert tuned_total > rr_total
    # Deterministic eager round-robin exposes nothing at all.
    assert rr_total == 0

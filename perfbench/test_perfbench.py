"""Tests of the benchmark itself, on small slices of each workload.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import os

import pytest

import layers
import run
import workloads
from compare import compare
from litmus_inputs import ring_outcomes
from repro.obs.recorder import Recorder
from repro.synth import SynthesisConfig, SynthesisEngine

#: Per-layer counts that depend only on the inputs, never on timing, on
#: the process layout or on what an earlier pass left in a cache.
DETERMINISTIC = (
    "vm.make_calls", "vm.steps", "vm.step_calls", "vm.local_steps",
    "vm.snapshots", "vm.restores",
    "sched.flush_random.runs", "sched.flush_random.discarded",
    "memory.flushes", "memory.flush_calls", "memory.read_calls",
    "memory.write_calls", "memory.max_buffer_depth", "memory.predicates",
    "sched.explorer.calls", "sched.explorer.paths", "sched.explorer.pruned",
    "sched.explorer.cache_hits", "sched.explorer.cache_states",
    "sched.explorer.incomplete",
    "spec.check_calls", "spec.apply_calls", "spec.violations",
    "parallel.broadcast_calls",
    "synth.rounds", "synth.executions", "synth.clauses", "synth.fences",
    "sat.calls", "sat.vars", "sat.clauses",
    "minic.compile_calls",
    "fuzz.programs", "fuzz.violating_programs", "fuzz.inconclusive",
)

ROWS = [("chase_lev", "lin", "pso"), ("msn_queue", "lin", "tso"),
        ("fifo_iwsq", "memory_safety", "pso")]


def _slice(name):
    """A workload and a few of its tasks."""
    workload = workloads.WORKLOADS[name](0)
    if name.startswith("table2-synth"):
        tasks = [(row, 1) for row in ROWS]
    elif name == "explore-litmus":
        tasks = [("sb", "tso"), ("2+2w", "pso"), ("sb3", "tso")]
    else:
        tasks = workloads.FuzzCampaign(0).pass_inputs(0)[1][:4]
    return workload, tasks


def _traced(workload, tasks, tmp_path):
    spool = tmp_path / "spool"
    spool.mkdir(exist_ok=True)
    tracer = layers.Tracer(str(spool))
    tracer.install()
    try:
        records = run.run_pass(workload, tasks, tracer)
    finally:
        tracer.uninstall()
    tracer.collect()
    metrics = run.layer_metrics(tracer, 0.0)
    return records, {name: metrics[name] for name in DETERMINISTIC}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_keeps_verdicts_and_counts(name, tmp_path):
    workload, tasks = _slice(name)
    untraced = run.run_pass(workload, tasks)
    assert all(workload.check(t, r) for t, r in zip(tasks, untraced))
    traced, counts = _traced(workload, tasks, tmp_path)
    assert traced == untraced
    _again, counts_again = _traced(workload, tasks, tmp_path)
    assert counts_again == counts
    # The counts the results carry agree with the wrappers' counts.
    if name.startswith("table2-synth"):
        assert counts["synth.rounds"] == sum(r["rounds"] for r in untraced)
        assert counts["synth.executions"] == \
            sum(r["executions"] for r in untraced)
        assert counts["synth.fences"] == \
            sum(len(r["fences"]) for r in untraced)
        assert counts["spec.violations"] == \
            sum(r["violations"] for r in untraced)
    else:
        assert counts["sched.explorer.paths"] == \
            sum(r["paths"] for r in untraced)
        assert counts["sched.explorer.cache_hits"] == \
            sum(r["cache_hits"] for r in untraced)


def test_traced_vm_and_memory_counts_match_the_system_counters(tmp_path):
    """``vm.steps`` and ``memory.flushes`` of a traced pass equal the
    ``exec/*`` counters the engine's own recorder keeps, untraced."""
    workload, tasks = _slice("table2-synth")
    steps = flushes = 0
    for (name, kind, model), synth_seed in tasks:
        bundle = workloads.ALGORITHMS[name]
        recorder = Recorder()
        config = SynthesisConfig(
            memory_model=model, flush_prob=bundle.flush_prob[model],
            executions_per_round=workloads.K,
            max_rounds=workloads.MAX_ROUNDS, seed=synth_seed)
        SynthesisEngine(config, recorder=recorder).synthesize(
            bundle.compile(), bundle.spec(kind), entries=bundle.entries,
            operations=bundle.operations)
        counters = recorder.aggregates()["counters"]
        steps += counters["exec/steps"]
        flushes += counters["exec/flushes"]
    _records, counts = _traced(workload, tasks, tmp_path)
    assert counts["vm.steps"] == steps
    assert counts["memory.flushes"] == flushes


def test_serial_equals_parallel(tmp_path):
    serial, tasks = _slice("table2-synth")
    parallel, _ = _slice("table2-synth-j2")
    serial_records, serial_counts = _traced(serial, tasks, tmp_path)
    parallel_records, parallel_counts = _traced(parallel, tasks, tmp_path)
    assert parallel_records == serial_records
    assert parallel_counts == serial_counts


def test_refuses_parallel_numbers_from_one_cpu(monkeypatch, capsys):
    monkeypatch.setattr(run, "machine", lambda: {
        "cpu_count": 1, "python": "3", "platform": "test"})
    code = run.main(["--workload", "table2-synth-j2", "--seconds", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_compare_prints_one_row_per_workload(tmp_path):
    def results(wall, steps):
        return {"machine": run.machine(), "workloads": {
            "table2-synth": {"end_to_end": {"wall_s": wall},
                             "per_layer": {"vm.steps": steps}},
            "explore-litmus": {"end_to_end": {"wall_s": 2.0}}}}
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(results(4.0, 0)))
    new.write_text(json.dumps(results(3.0, 10)))
    text = compare(str(old), str(new))
    assert "-25.0%" in text and "+=10" in text
    rows = [line for line in text.splitlines()
            if line.startswith("table2-synth")]
    assert len(rows) == 2  # one in each table


def test_benchmark_json_matches_the_runner():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER


def test_ring_outcomes_by_hand():
    rings = ring_outcomes(3)
    assert len(rings["sc"]) == 7 and (0, 0, 0) not in rings["sc"]
    assert len(rings["tso"]) == len(rings["pso"]) == 8

"""The four workloads of the benchmark.

A workload turns ``--seed`` into its inputs and splits them into
*passes*.  A pass is a list of tasks run closed-loop: each task starts
when the previous one ends.  A task is one synthesis row, one
exploration or one fuzz program.  :meth:`Workload.run` returns the
task's *record*: its verdict plus the deterministic counts read from the
result.  :meth:`Workload.check` judges the verdict against a reference.

Every call into ``repro`` goes through a module attribute or a method
(``explorer.explore``, ``runner.run_campaign``, ``engine.synthesize``),
so the wrappers the traced pass installs see it.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Sequence, Tuple

from repro.algorithms import ALGORITHMS
from repro.fuzz import runner
from repro.litmus import LITMUS_TESTS, thread_results
from repro.minic import compile_source
from repro.sched import explorer
from repro.synth import SynthesisConfig, SynthesisEngine

from litmus_inputs import RINGS

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")

#: Executions per round (the paper's K) of every Table-2 row.
K = 100
MAX_ROUNDS = 12
MODELS = ("sc", "tso", "pso")
#: Path budget per exploration: far above what any input needs, so an
#: incomplete exploration is a failure, never a budget choice.
MAX_PATHS = 2_000_000
#: Fuzz programs per pass.
FUZZ_PROGRAMS_PER_PASS = 40

Row = Tuple[str, str, str]


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, name)) as handle:
        return json.load(handle)


def rotate(items: Sequence, start: int) -> list:
    start %= len(items)
    return list(items[start:]) + list(items[:start])


class Workload:
    """Inputs from a seed, passes of tasks, and a verdict per task."""

    name = ""
    #: Worker processes per synthesis (None: the serial pool).
    workers = None

    def pass_inputs(self, index: int) -> Tuple[str, list]:
        """``(input id, tasks)`` of pass *index*; equal ids mean equal
        task sets, whose records must then be equal too."""
        raise NotImplementedError

    def run(self, task) -> dict:
        raise NotImplementedError

    def check(self, task, record: dict) -> bool:
        raise NotImplementedError

    def task_id(self, task) -> str:
        return str(task)

    def warm_up(self) -> None:
        """Set-up work beyond compiling the inputs."""


# ----------------------------------------------------------------------
# Table 2 synthesis


def table2_rows() -> List[Row]:
    """The 13 algorithms x {tso, pso}, each under its strongest spec
    (the last of ``supports``: lin, or memory safety for the iWSQs)."""
    return [(name, bundle.supports[-1], model)
            for name, bundle in ALGORITHMS.items()
            for model in ("tso", "pso")]


def row_id(row: Row) -> str:
    return "/".join(row)


def synthesize_row(row: Row, synth_seed: int, workers=None,
                   inputs=None) -> dict:
    """Run one Table-2 row; the record holds the verdict (outcome and
    fence locations) and the counts the result carries."""
    name, kind, model = row
    bundle = ALGORITHMS[name]
    module, spec = inputs if inputs is not None \
        else (bundle.compile(), bundle.spec(kind))
    config = SynthesisConfig(
        memory_model=model, flush_prob=bundle.flush_prob[model],
        executions_per_round=K, max_rounds=MAX_ROUNDS, seed=synth_seed,
        workers=workers)
    result = SynthesisEngine(config).synthesize(
        module, spec, entries=bundle.entries, operations=bundle.operations)
    return {
        "outcome": result.outcome.value,
        "fences": result.fence_locations(),
        "rounds": len(result.rounds),
        "executions": result.total_executions,
        "violations": result.total_violations,
        "clauses": sum(r.clauses for r in result.rounds),
    }


class Table2Synth(Workload):
    """Synthesis for the 13 Table-2 algorithms x {tso, pso}, the paper's
    headline workload, on the serial pool.

    Loads: the flush-delaying scheduler, VM dispatch and the memory model
    inside ``run_execution`` (most of the time), then the lin/SC history
    check, the repair formula, SAT and fence enforcement.  TSO rows drive
    the FIFO store buffer, PSO rows the per-address buffers.
    Bypasses: the explorer, VM snapshots and the process pool.

    Inputs: the 8 synthesis seeds of ``reference/table2.json``.  Pass
    ``i`` runs every row, row ``j`` with seed number ``seed + i + j``
    (modulo 8): each pass mixes all seeds, so passes cost about the same,
    and 8 passes run every (row, seed) pair once.
    """

    name = "table2-synth"

    def __init__(self, seed: int) -> None:
        reference = load_reference("table2.json")
        if reference["K"] != K or reference["max_rounds"] != MAX_ROUNDS:
            raise ValueError("reference/table2.json was made with other "
                             "synthesis settings")
        self.expected: Dict[str, Dict[str, dict]] = reference["seeds"]
        self.synth_seeds = rotate(sorted(int(s) for s in self.expected),
                                  seed)
        self.rows = table2_rows()
        self.inputs = {}
        for name, kind, _model in self.rows:
            bundle = ALGORITHMS[name]
            self.inputs[name] = (bundle.compile(), bundle.spec(kind))

    def pass_inputs(self, index: int) -> Tuple[str, list]:
        seeds = rotate(self.synth_seeds, index)
        return ("seeds-from-%d" % seeds[0],
                [(row, seeds[j % len(seeds)])
                 for j, row in enumerate(self.rows)])

    def run(self, task) -> dict:
        row, synth_seed = task
        return synthesize_row(row, synth_seed, self.workers,
                              self.inputs[row[0]])

    def check(self, task, record: dict) -> bool:
        row, synth_seed = task
        expected = self.expected[str(synth_seed)][row_id(row)]
        return (record["outcome"] == expected["outcome"]
                and record["fences"] == expected["fences"])

    def task_id(self, task) -> str:
        row, synth_seed = task
        return "%s@%d" % (row_id(row), synth_seed)


class Table2SynthJ2(Table2Synth):
    """The same inputs as ``table2-synth`` with ``workers=2``.

    Loads: everything ``table2-synth`` loads, plus ``parallel/``: the
    pickled module broadcast, ``ExecutionSummary`` IPC and the
    index-ordered merge.  The per-execution work is identical, so the
    difference between the two workloads isolates the pool.
    Set-up also starts a pool once, to include worker start-up.
    """

    name = "table2-synth-j2"
    workers = 2

    def warm_up(self) -> None:
        bundle = ALGORITHMS["ms2_queue"]
        config = SynthesisConfig(memory_model="tso", executions_per_round=8,
                                 max_rounds=1, workers=self.workers)
        SynthesisEngine(config).synthesize(
            bundle.compile(), bundle.spec("lin"), entries=bundle.entries,
            operations=bundle.operations)


# ----------------------------------------------------------------------
# Litmus exploration


class ExploreLitmus(Workload):
    """Exhaustive exploration, at the default ``sleep+cache`` reduction,
    of the 10 catalog litmus tests plus 3- and 4-thread store-buffering
    rings (``litmus_inputs.py``), each under sc, tso and pso.

    Loads: the explorer's sleep sets and state cache, VM snapshots and
    restores, and the memory model's flushes.  ``sb4`` under TSO/PSO
    carries most of the time.
    Bypasses: specs, synthesis, SAT and the process pool.

    Inputs: the 36 explorations are fixed; the seed sets their order in
    each pass.
    """

    name = "explore-litmus"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.programs = {}
        for name, test in LITMUS_TESTS.items():
            self.programs[name] = (test.compile(), test.expected)
        for name, (source, expected) in RINGS.items():
            self.programs[name] = (compile_source(source, name), expected)
        self.tasks = [(name, model) for name in self.programs
                      for model in MODELS]

    def pass_inputs(self, index: int) -> Tuple[str, list]:
        order = list(self.tasks)
        random.Random("%d/%d" % (self.seed, index)).shuffle(order)
        return "litmus", order

    def run(self, task) -> dict:
        name, model = task
        module, _expected = self.programs[name]
        result = explorer.explore(module, model, outcome_fn=thread_results,
                                  max_paths=MAX_PATHS)
        stats = result.stats
        return {
            "outcomes": sorted(result.outcomes),
            "violations": sorted(result.violations),
            "complete": result.complete,
            "paths": result.paths,
            "pruned": stats.pruned,
            "cache_hits": stats.cache_hits,
            "cache_states": stats.cache_states,
        }

    def check(self, task, record: dict) -> bool:
        name, model = task
        expected = self.programs[name][1][model]
        return (record["complete"] and not record["violations"]
                and set(map(tuple, record["outcomes"])) == set(expected))

    def task_id(self, task) -> str:
        return "%s/%s" % task


# ----------------------------------------------------------------------
# Fuzzing


class FuzzCampaign(Workload):
    """``run_campaign`` with the default ``OracleConfig``, one generated
    program per task.

    Loads: program generation and MiniC compile per program, exploration
    of each program under sc/tso/pso (inclusion and fully-fenced
    oracles), short random runs, and short synthesis rounds on the
    violating programs, so per-execution set-up (``make_vm``) and
    per-round work show more than in ``table2-synth``.
    Bypasses: the process pool; history checks are outcome-set checks.

    Inputs: program seeds from ``reference/fuzz.json`` in groups of
    ``FUZZ_PROGRAMS_PER_PASS``; pass ``i`` runs group ``seed + i``
    (modulo the number of groups).
    """

    name = "fuzz-campaign"

    def __init__(self, seed: int) -> None:
        reference = load_reference("fuzz.json")
        self.expected: Dict[str, List[str]] = reference["seeds"]
        seeds = sorted(int(s) for s in self.expected)
        size = FUZZ_PROGRAMS_PER_PASS
        groups = [seeds[i:i + size] for i in range(0, len(seeds), size)]
        self.groups = rotate(groups, seed)

    def pass_inputs(self, index: int) -> Tuple[str, list]:
        group = self.groups[index % len(self.groups)]
        return "programs-%d" % group[0], group

    def run(self, task) -> dict:
        return fuzz_program(task)

    def check(self, task, record: dict) -> bool:
        return (not record["failures"] and not record["inconclusive"]
                and record["violating_models"] == self.expected[str(task)])


def fuzz_program(program_seed: int) -> dict:
    """Run the oracle suite on one generated program."""
    oracle_reports = []
    report = runner.run_campaign(
        seed=program_seed, iters=1,
        progress=lambda _i, _program, oracle: oracle_reports.append(oracle))
    return {
        "failures": ["%s/%s: %s" % (f.oracle, f.model, f.detail)
                     for failure in report.failures
                     for f in failure.failures],
        "inconclusive": ["%s/%s" % (oracle, model)
                         for _seed, oracle, model in report.inconclusive],
        "violating_models": list(oracle_reports[0].violating_models),
        "paths": report.paths,
        "pruned": report.pruned,
        "cache_hits": report.cache_hits,
    }


WORKLOADS = {cls.name: cls for cls in (Table2Synth, Table2SynthJ2,
                                       ExploreLitmus, FuzzCampaign)}

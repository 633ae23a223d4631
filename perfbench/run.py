"""Benchmark of the DFENCE reproduction: Table-2 synthesis, litmus
exploration and fuzzing, with per-layer time from a traced pass.

Run from the repository root::

    python3 perfbench/run.py --workload table2-synth --seed 1 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json

One run sets up the workload, then repeats timed passes over its inputs
(tracing off) until ``--seconds`` have passed, checking every task's
verdict against the reference.  With ``--trace 1`` it then runs one more
pass with every layer wrapped (``layers.py``) and reports the per-layer
metrics instead of the end-to-end ones.  The last line of standard
output is the result as one JSON object; the full record is merged into
``perfbench/out/results.json`` (``--out``), which ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("perfbench: %s has no src/repro to measure" % ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
from compare import compare  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
MIN_PASSES = 3

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics (traced pass): name -> unit.
PER_LAYER = {
    "vm.make_calls": "count", "vm.make_s": "s",
    "vm.steps": "count", "vm.step_calls": "count",
    "vm.local_steps": "count", "vm.dispatch_s": "s", "vm.steps_per_s": "1/s",
    "vm.snapshots": "count", "vm.restores": "count", "vm.snapshot_s": "s",
    "vm.compile_misses": "count", "vm.compile_s": "s",
    "sched.flush_random.runs": "count", "sched.flush_random.self_s": "s",
    "sched.flush_random.discarded": "count",
    "sched.flush_random.usable_frac": "frac",
    "memory.flushes": "count", "memory.flush_calls": "count",
    "memory.read_calls": "count", "memory.write_calls": "count",
    "memory.self_s": "s", "memory.max_buffer_depth": "count",
    "memory.predicates": "count",
    "sched.explorer.calls": "count", "sched.explorer.paths": "count",
    "sched.explorer.pruned": "count", "sched.explorer.cache_hits": "count",
    "sched.explorer.cache_states": "count",
    "sched.explorer.incomplete": "count", "sched.explorer.self_s": "s",
    "sched.explorer.reduction_ratio": "ratio",
    "spec.check_calls": "count", "spec.check_s": "s",
    "spec.apply_calls": "count", "spec.violations": "count",
    "parallel.broadcast_calls": "count", "parallel.broadcast_s": "s",
    "parallel.summarize_s": "s", "parallel.summary_bytes": "B",
    "parallel.wait_s": "s",
    "synth.rounds": "count", "synth.executions": "count",
    "synth.clauses": "count", "synth.add_execution_s": "s",
    "synth.enforce_s": "s", "synth.fences": "count", "synth.self_s": "s",
    "sat.calls": "count", "sat.s": "s", "sat.vars": "count",
    "sat.clauses": "count",
    "minic.compile_calls": "count", "minic.compile_s": "s",
    "fuzz.programs": "count", "fuzz.generate_s": "s",
    "fuzz.violating_programs": "count", "fuzz.inconclusive": "count",
    "fuzz.self_s": "s",
    "trace.overhead_frac": "frac",
}

clock = time.perf_counter


def machine() -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return {"cpu_count": cpus, "python": platform.python_version(),
            "platform": platform.platform()}


def set_up(name: str, seed: int) -> Workload:
    """Compile the workload's inputs and do its remaining set-up."""
    workload = WORKLOADS[name](seed)
    workload.warm_up()
    return workload


def setup_probe(name: str, seed: int) -> float:
    """Time, in a fresh process, from process start until the workload
    is ready for its first task (imports, compile, warm-up)."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", name, "--seed", str(seed)]
    start = clock()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as child:
        line = child.stdout.readline()
        seconds = clock() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError("set-up probe failed (exit %s)" % child.returncode)
    return seconds


class Tally:
    """Attempted and failed tasks, and the records seen per input."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: List[str] = []
        self.records: Dict[str, list] = {}
        self.inconsistent: List[str] = []

    def add(self, workload: Workload, input_id: str, tasks: list,
            records: List[dict]) -> None:
        keyed = sorted(zip(map(workload.task_id, tasks),
                           map(json.dumps, records)))
        for task, record in zip(tasks, records):
            self.attempted += 1
            if not workload.check(task, record):
                self.failed.append("%s: %s" % (workload.task_id(task),
                                               json.dumps(record)))
        seen = self.records.setdefault(input_id, keyed)
        if seen != keyed:
            self.inconsistent.append(input_id)


def run_pass(workload: Workload, tasks: list,
             tracer: Optional[layers.Tracer] = None) -> List[dict]:
    run = workload.run
    if tracer is not None:
        run = tracer.wrap(
            "task", run,
            label=lambda args: {"task": workload.task_id(args[0])})
    return [run(task) for task in tasks]


def timed_passes(workload: Workload, seconds: float, tally: Tally,
                 between: Optional[Callable[[], None]] = None):
    """Untraced passes until *seconds* have passed; per-pass wall times
    and input ids.  *between* runs after each pass, outside its time."""
    start = clock()
    times, ids = [], []
    while len(times) < MIN_PASSES or clock() - start < seconds:
        input_id, tasks = workload.pass_inputs(len(times))
        begin = clock()
        records = run_pass(workload, tasks)
        times.append(clock() - begin)
        ids.append(input_id)
        tally.add(workload, input_id, tasks, records)
        if between is not None:
            between()
    return times, ids


def peak_rss_mb(workers: Optional[int]) -> float:
    """Peak RSS of this process, plus *workers* times the largest
    finished child's peak (an upper bound on the pool's share)."""
    multiprocessing.active_children()  # reap finished pool workers
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers or 0) * child) / 1024.0


def traced_pass(workload: Workload, tally: Tally, untraced_s: float,
                trace_path: str) -> Dict[str, float]:
    """Pass 0's inputs again with every layer wrapped."""
    spool = os.path.join(OUT_DIR, "spool-%d" % os.getpid())
    os.makedirs(spool, exist_ok=True)
    tracer = layers.Tracer(spool)
    input_id, tasks = workload.pass_inputs(0)
    t0 = clock()
    tracer.install()
    try:
        begin = clock()
        records = run_pass(workload, tasks, tracer)
        wall = clock() - begin
    finally:
        tracer.uninstall()
    tracer.collect()
    os.rmdir(spool)
    tally.add(workload, input_id, tasks, records)
    with open(trace_path, "w") as handle:
        json.dump(tracer.chrome_trace(t0), handle)
    return layer_metrics(tracer, wall / untraced_s - 1.0)


def layer_metrics(tracer: layers.Tracer,
                  overhead_frac: float) -> Dict[str, float]:
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    steps = calls["vm.step"] + counts["vm.local_steps"]
    dispatch = self_s["vm.step"] + self_s["vm.run_local"]
    runs = calls["sched.flush_random.run"]
    discarded = counts["sched.flush_random.discarded"]
    paths = counts["sched.explorer.paths"]
    values = {
        "vm.make_calls": calls["vm.make"],
        "vm.make_s": self_s["vm.make"],
        "vm.steps": steps,
        "vm.step_calls": calls["vm.step"],
        "vm.local_steps": counts["vm.local_steps"],
        "vm.dispatch_s": dispatch,
        "vm.steps_per_s": steps / dispatch if dispatch else 0.0,
        "vm.snapshots": calls["vm.snapshot"],
        "vm.restores": calls["vm.restore"],
        "vm.snapshot_s": self_s["vm.snapshot"] + self_s["vm.restore"],
        "vm.compile_misses": counts["vm.compile_misses"],
        "vm.compile_s": counts["vm.compile_s"],
        "sched.flush_random.runs": runs,
        "sched.flush_random.self_s": self_s["sched.flush_random.run"],
        "sched.flush_random.discarded": discarded,
        "sched.flush_random.usable_frac":
            (runs - discarded) / runs if runs else 0.0,
        "memory.flushes": counts["memory.flushes"],
        "memory.flush_calls": calls["memory.flush_one"],
        "memory.read_calls": calls["memory.read"],
        "memory.write_calls": calls["memory.write"],
        "memory.self_s": sum(seconds for name, seconds in self_s.items()
                             if layers.LAYER_OF[name] == "memory"),
        "memory.max_buffer_depth": tracer.maxima["memory.max_buffer_depth"],
        "memory.predicates": counts["memory.predicates"],
        "sched.explorer.calls": calls["sched.explorer.explore"],
        "sched.explorer.paths": paths,
        "sched.explorer.pruned": counts["sched.explorer.pruned"],
        "sched.explorer.cache_hits": counts["sched.explorer.cache_hits"],
        "sched.explorer.cache_states": counts["sched.explorer.cache_states"],
        "sched.explorer.incomplete": counts["sched.explorer.incomplete"],
        "sched.explorer.self_s": self_s["sched.explorer.explore"],
        "sched.explorer.reduction_ratio":
            counts["sched.explorer.estimated_unreduced"] / paths
            if paths else 0.0,
        "spec.check_calls": calls["spec.check"],
        "spec.check_s": self_s["spec.check"] + self_s["spec.apply"],
        "spec.apply_calls": calls["spec.apply"],
        "spec.violations": counts["spec.violations"],
        "parallel.broadcast_calls": calls["parallel.broadcast"],
        "parallel.broadcast_s": self_s["parallel.broadcast"],
        "parallel.summarize_s": self_s["parallel.summarize"],
        "parallel.summary_bytes": counts["parallel.summary_bytes"],
        "parallel.wait_s": self_s["parallel.wait"],
        "synth.rounds": counts["synth.rounds"],
        "synth.executions": counts["synth.executions"],
        "synth.clauses": counts["synth.clauses"],
        "synth.add_execution_s": self_s["synth.add_execution"],
        "synth.enforce_s": self_s["synth.enforce"],
        "synth.fences": counts["synth.fences"],
        "synth.self_s": self_s["synth.synthesize"],
        "sat.calls": calls["sat.minimum_model"],
        "sat.s": self_s["sat.minimum_model"],
        "sat.vars": counts["sat.vars"],
        "sat.clauses": counts["sat.clauses"],
        "minic.compile_calls": calls["minic.compile"],
        "minic.compile_s": self_s["minic.compile"],
        "fuzz.programs": calls["fuzz.generate"],
        "fuzz.generate_s": self_s["fuzz.generate"],
        "fuzz.violating_programs": counts["fuzz.violating_programs"],
        "fuzz.inconclusive": counts["fuzz.inconclusive"],
        "fuzz.self_s": (self_s["fuzz.run_campaign"]
                        + self_s["fuzz.check_program"]),
        "trace.overhead_frac": overhead_frac,
    }
    assert set(values) == set(PER_LAYER)
    return values


def with_units(values: Dict[str, float],
               units: Dict[str, str]) -> Dict[str, dict]:
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def save(path: str, name: str, record: dict) -> None:
    """Merge one run's record into the results file, per workload."""
    results = {"workloads": {}}
    if os.path.exists(path):
        with open(path) as handle:
            results = json.load(handle)
    entry = results["workloads"].setdefault(name, {})
    entry.update(record)
    results["machine"] = record["machine"]
    with open(path, "w") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(OUT_DIR,
                                                      "results.json"),
                        help="results file to merge this run into")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="print per-workload deltas of two results "
                        "files and exit")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.compare:
        print(compare(*args.compare))
        return 0
    host = machine()
    workload_class = WORKLOADS[args.workload]
    if workload_class.workers and host["cpu_count"] < 2:
        print("refusing to report %s: %d usable CPU(s); a parallel "
              "number needs at least 2" % (args.workload,
                                            host["cpu_count"]),
              file=sys.stderr)
        return 2
    if args.setup_probe:
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = set_up(args.workload, args.seed)
    tally = Tally()
    # Set-up is sampled between passes, so that its samples span the run
    # as the pass times do, and the machine's drift averages out alike.
    setup_samples: List[float] = []
    between = None if args.trace else lambda: setup_samples.append(
        setup_probe(args.workload, args.seed))
    times, ids = timed_passes(workload, args.seconds, tally, between)
    record = {"machine": host, "seed": args.seed, "seconds": args.seconds,
              "passes": len(times), "pass_s": times}
    if args.trace:
        same_inputs = [t for t, i in zip(times, ids) if i == ids[0]]
        trace_path = os.path.join(OUT_DIR, "trace-%s-seed%d.json"
                                  % (args.workload, args.seed))
        metrics = traced_pass(workload, tally, statistics.median(same_inputs),
                              trace_path)
        units = PER_LAYER
        record.update(per_layer=metrics, trace_file=trace_path)
    else:
        metrics = {"wall_s": statistics.median(times),
                   "peak_rss_mb": peak_rss_mb(workload.workers),
                   "setup_s": statistics.median(setup_samples)}
        units = END_TO_END
        record.update(end_to_end=metrics)
    failed = len(tally.failed)
    correct = not tally.failed and not tally.inconsistent
    record.update(attempted=tally.attempted, failed=failed,
                  failed_frac=failed / tally.attempted,
                  failures=tally.failed[:20],
                  inconsistent_inputs=tally.inconsistent)
    save(args.out, args.workload, record)
    for child in multiprocessing.active_children():
        child.join()
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": failed,
                      "metrics": with_units(metrics, units)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

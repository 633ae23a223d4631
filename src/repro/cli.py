"""Command-line interface — the reproduction's ``dfence`` front door.

Three modes:

* named benchmarks::

      python -m repro --algorithm chase_lev --model pso --spec sc

* user MiniC files (with an explicit sequential spec for history
  checking, or plain memory safety)::

      python -m repro myqueue.c --model pso --spec memory_safety \\
          --entries client0,client1

* the differential fuzzing campaign (random programs through the
  cross-model oracle suite)::

      python -m repro fuzz --seed 0 --iters 50 --model tso --model pso

Prints a round-by-round summary, the synthesized fence placements, and —
for MiniC inputs — the source annotated with the inserted fences.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .algorithms import ALGORITHMS
from .minic import compile_source
from .obs import NULL_RECORDER, ProgressReporter, Recorder, SpanTracer
from .spec import (
    LinearizabilitySpec,
    MemorySafetySpec,
    QueueSpec,
    SequentialConsistencySpec,
    SetSpec,
    StackSpec,
    WSQDequeSpec,
)
from .synth import (
    SynthesisConfig,
    SynthesisEngine,
    annotate_source,
    format_metrics,
    summarize,
)

#: Named sequential specs available from the command line.
SEQ_SPECS = {
    "queue": QueueSpec,
    "stack": StackSpec,
    "set": SetSpec,
    "wsq": WSQDequeSpec,
}


def _workers_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            "must be 0 (one per CPU) or a positive worker count")
    return value


def _nonnegative_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamic fence synthesis for relaxed memory models "
                    "(PLDI 2012 reproduction)")
    parser.add_argument("source", nargs="?",
                        help="MiniC source file (omit when using "
                             "--algorithm)")
    parser.add_argument("--algorithm", "-a", choices=sorted(ALGORITHMS),
                        help="run a built-in Table-2 benchmark")
    parser.add_argument("--model", "-m", default="pso",
                        choices=["sc", "tso", "pso"],
                        help="memory model (default: pso)")
    parser.add_argument("--spec", "-s", default="memory_safety",
                        help="memory_safety, sc or lin (default: "
                             "memory_safety)")
    parser.add_argument("--seq-spec", choices=sorted(SEQ_SPECS),
                        help="sequential spec for sc/lin checking of a "
                             "MiniC file (queue/stack/set/wsq)")
    parser.add_argument("--entries", default="main",
                        help="comma-separated client entry functions "
                             "(default: main)")
    parser.add_argument("--operations", default="",
                        help="comma-separated operation names to record")
    parser.add_argument("--executions", "-k", type=int, default=400,
                        help="executions per round (default: 400)")
    parser.add_argument("--rounds", type=int, default=12,
                        help="maximum repair rounds (default: 12)")
    parser.add_argument("--flush-prob", type=float, default=None,
                        help="scheduler flush probability (default: "
                             "algorithm tuning, or 0.1/0.3 by model)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", "-j", type=_workers_arg, default=None,
                        help="worker processes for round execution "
                             "(default: in-process serial; 0 = one per "
                             "CPU; serial where os.fork is missing; "
                             "results are identical either way)")
    parser.add_argument("--witness-limit", type=_nonnegative_arg,
                        default=5, metavar="N",
                        help="violation witnesses kept per round "
                             "(default: 5; 0 disables)")
    parser.add_argument("--trace", metavar="FILE",
                        help="write a Chrome trace-event JSON of the run "
                             "(open in Perfetto / chrome://tracing)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics block (counters, "
                             "histograms, timing) after the summary")
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="live round-by-round progress on stderr")
    parser.add_argument("--annotate", action="store_true",
                        help="print the source annotated with fences")
    parser.add_argument("--check-only", action="store_true",
                        help="only report violations; do not repair")
    parser.add_argument("--explore", action="store_true",
                        help="exhaustively enumerate schedules of a MiniC "
                             "file (or a litmus catalog name) and print "
                             "the exact outcome set per memory model")
    parser.add_argument("--max-paths", type=int, default=20_000,
                        metavar="N",
                        help="path budget per --explore enumeration "
                             "(default: 20000); it bounds leaves, not "
                             "work. An exhausted budget is reported "
                             "loudly — the outcome set is then only a "
                             "lower bound")
    parser.add_argument("--profile", action="store_true",
                        help="run the command under cProfile and append "
                             "the top-20 cumulative entries to the report")
    return parser


def build_fuzz_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description="Differential fuzzing: generate random concurrent "
                    "MiniC programs and cross-check the semantics, the "
                    "explorer, the random scheduler, and the synthesis "
                    "engine against each other")
    parser.add_argument("--seed", type=int, default=0,
                        help="first generator seed (default: 0)")
    parser.add_argument("--iters", "-n", type=int, default=50,
                        help="number of programs, consecutive seeds "
                             "(default: 50)")
    parser.add_argument("--model", action="append", dest="models",
                        choices=["tso", "pso"], metavar="MODEL",
                        help="relaxed model(s) to differentiate against "
                             "SC; repeatable (default: tso and pso)")
    parser.add_argument("--max-paths", type=int, default=None, metavar="N",
                        help="path budget per exploration (default: "
                             "50000); it bounds leaves, not work")
    parser.add_argument("--max-total-paths", type=int, default=None,
                        metavar="N",
                        help="path budget for one program's whole oracle "
                             "suite (default: 250000)")
    parser.add_argument("--corpus-dir", metavar="DIR",
                        help="write shrunk reproducers of failing seeds "
                             "into DIR (e.g. tests/corpus)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip delta-debugging failures (faster, "
                             "bigger reproducers)")
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="per-seed progress on stderr")
    parser.add_argument("--trace", metavar="FILE",
                        help="write a Chrome trace-event JSON with one "
                             "span per oracle and seed")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics block (explore/* "
                             "counters, span timing) after the summary")
    parser.add_argument("--profile", action="store_true",
                        help="run the campaign under cProfile and append "
                             "the top-20 cumulative entries to the report")
    return parser


def _profiled(fn, args) -> int:
    """Run *fn(args)* under cProfile; append the top-20 entries."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    try:
        return profiler.runcall(fn, args)
    finally:
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats("cumulative").print_stats(20)
        print("profile (top 20 by cumulative time):")
        print(stream.getvalue().rstrip())


def _fuzz(argv: List[str]) -> int:
    args = build_fuzz_parser().parse_args(argv)
    if args.profile:
        return _profiled(_fuzz_command, args)
    return _fuzz_command(args)


def _fuzz_command(args) -> int:
    """The parsed ``repro fuzz`` body (separate so --profile can wrap
    it)."""
    from .fuzz import OracleConfig, run_campaign

    oracle_kwargs = {}
    if args.models:
        oracle_kwargs["models"] = tuple(dict.fromkeys(args.models))
    if args.max_paths is not None:
        oracle_kwargs["max_paths"] = args.max_paths
    if args.max_total_paths is not None:
        oracle_kwargs["max_total_paths"] = args.max_total_paths

    progress = None
    if args.verbose:
        def progress(iteration, program, oracle_report):
            print("  seed %d: %d stmts, %d threads, %s"
                  % (program.seed, program.statement_count(),
                     len(program.threads), oracle_report),
                  file=sys.stderr)

    # -v prints the per-seed lines above, not the synthesis round
    # progress, so only --metrics/--trace ask for a recorder.
    recorder = _make_recorder(args, progress=False)
    report = run_campaign(
        seed=args.seed, iters=args.iters,
        oracle_config=OracleConfig(**oracle_kwargs),
        corpus_dir=args.corpus_dir,
        shrink_failures=not args.no_shrink,
        progress=progress,
        recorder=recorder or NULL_RECORDER)
    print(report.summary())
    _emit_observability(args, recorder)
    return 0 if report.ok else 1


def _spec_for(args, bundle) -> object:
    if bundle is not None:
        return bundle.spec(args.spec)
    if args.spec == "memory_safety":
        return MemorySafetySpec()
    if args.seq_spec is None:
        raise SystemExit("--spec %s needs --seq-spec for a MiniC file"
                         % args.spec)
    seq = SEQ_SPECS[args.seq_spec]()
    if args.spec == "sc":
        return SequentialConsistencySpec(seq)
    if args.spec == "lin":
        return LinearizabilitySpec(seq)
    raise SystemExit("unknown spec %r (memory_safety/sc/lin)" % args.spec)


def _explore(args) -> int:
    from .litmus import LITMUS_TESTS, thread_results
    from .sched.explorer import explore

    if args.source in LITMUS_TESTS:
        module = LITMUS_TESTS[args.source].compile()
        print("litmus %r: %s" % (args.source,
                                 LITMUS_TESTS[args.source].description))
    elif args.source:
        with open(args.source) as handle:
            module = compile_source(handle.read(), args.source)
    else:
        raise SystemExit("--explore needs a MiniC file or a litmus name "
                         "(%s)" % ", ".join(sorted(LITMUS_TESTS)))

    recorder = _make_recorder(args) or NULL_RECORDER
    truncated = []
    step_limited = []
    cycles = []
    for model in ("sc", "tso", "pso"):
        with recorder.span("explore", model=model):
            result = explore(module, model, outcome_fn=thread_results,
                             max_paths=args.max_paths, recorder=recorder)
        stats = result.stats
        if not result.complete:
            status = "BUDGET EXHAUSTED"
            truncated.append(model.upper())
        elif not result.exact:
            lower = []
            if stats.step_limited:
                lower.append("STEP LIMIT HIT (%d leaves)"
                             % stats.step_limited)
                step_limited.append(model.upper())
            if stats.cycles:
                lower.append("CYCLE CLOSED (%d)" % stats.cycles)
                cycles.append(model.upper())
            status = ", ".join(lower)
        else:
            status = "exact"
        outcomes = ", ".join(str(o) for o in sorted(result.outcomes))
        print("%-4s (%6d paths, %s): %s"
              % (model.upper(), result.paths, status, outcomes))
        if stats is not None and stats.estimated_unreduced > stats.paths:
            print("     reduction: >=%d unreduced paths (%.1fx; "
                  "%d slept, %d cache hits, %d persistent)"
                  % (stats.estimated_unreduced,
                     stats.estimated_unreduced / max(1, stats.paths),
                     stats.pruned, stats.cache_hits, stats.persistent))
        for violation in sorted(result.violations):
            print("     violation: %s" % violation[:100])
    if truncated:
        print("warning: path budget (%d) exhausted under %s — those "
              "outcome sets are lower bounds, not exact; rerun with a "
              "larger --max-paths" % (args.max_paths, ", ".join(truncated)),
              file=sys.stderr)
    if step_limited:
        print("warning: the step limit cut paths under %s — those "
              "outcome sets are lower bounds, not exact"
              % ", ".join(step_limited), file=sys.stderr)
    if cycles:
        print("warning: the state cache closed a cycle under %s (a loop "
              "whose state repeats) — those outcome sets are lower "
              "bounds, not exact" % ", ".join(cycles), file=sys.stderr)
    _emit_observability(args, recorder)
    if truncated or step_limited or cycles:
        return 3
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "fuzz":
        return _fuzz(argv[1:])
    args = build_parser().parse_args(argv)
    if args.profile:
        return _profiled(_run_command, args)
    return _run_command(args)


def _run_command(args) -> int:
    """The parsed command body (separate so --profile can wrap it)."""
    if args.explore:
        return _explore(args)
    if (args.source is None) == (args.algorithm is None):
        raise SystemExit("give exactly one of a MiniC file or --algorithm")

    if args.algorithm:
        bundle = ALGORITHMS[args.algorithm]
        module = bundle.compile()
        entries = bundle.entries
        operations = bundle.operations
        flush_prob = args.flush_prob
        if flush_prob is None:
            flush_prob = bundle.flush_prob.get(args.model, 0.3)
    else:
        bundle = None
        with open(args.source) as handle:
            module = compile_source(handle.read(), args.source)
        entries = tuple(e for e in args.entries.split(",") if e)
        operations = tuple(o for o in args.operations.split(",") if o)
        flush_prob = args.flush_prob
        if flush_prob is None:
            flush_prob = 0.1 if args.model == "tso" else 0.3

    spec = _spec_for(args, bundle)
    config = SynthesisConfig(
        memory_model=args.model, flush_prob=flush_prob,
        executions_per_round=args.executions, max_rounds=args.rounds,
        seed=args.seed, workers=args.workers,
        witness_limit=args.witness_limit)
    recorder = _make_recorder(args)
    engine = SynthesisEngine(config, recorder=recorder)

    if args.check_only:
        stats = engine.test_program(
            module, spec, entries=entries, operations=operations)
        print("%d violations in %d executions (%d discarded)"
              % (stats.violations, stats.runs, stats.discarded))
        if stats.example:
            print("e.g. %s" % stats.example)
        _emit_observability(args, recorder)
        return 1 if stats.violations else 0

    result = engine.synthesize(module, spec, entries=entries,
                               operations=operations)
    metrics = recorder.snapshot() if args.metrics else None
    print(summarize(result, metrics=metrics))
    if args.annotate and result.program.source:
        print()
        print(annotate_source(result))
    _emit_observability(args, recorder, metrics_done=True)
    return 0 if result.outcome.value == "clean" else 2


def _make_recorder(args, progress: bool = True) -> Optional[Recorder]:
    """Build the observability recorder the flags ask for (or None).

    With *progress*, ``--verbose`` asks for live round progress too;
    commands whose ``-v`` prints something else pass ``progress=False``.
    """
    verbose = progress and args.verbose
    if not (args.trace or args.metrics or verbose):
        return None
    return Recorder(
        tracer=SpanTracer() if args.trace else None,
        progress=ProgressReporter(sys.stderr) if verbose else None)


def _emit_observability(args, recorder: Optional[Recorder],
                        metrics_done: bool = False) -> None:
    """Flush recorder outputs: the trace file and a metrics block."""
    if recorder is None:
        return
    if args.metrics and not metrics_done:
        print(format_metrics(recorder.snapshot()))
    if args.trace:
        recorder.write_trace(args.trace)
        if args.verbose:
            print("trace written to %s" % args.trace, file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""The fuzzing campaign driver behind ``repro fuzz``.

Generates ``iters`` programs from consecutive seeds, runs the full
oracle suite on each, delta-debugs any failure down to a minimal
reproducer, and (optionally) serializes reproducers into a corpus
directory so they become permanent regression tests.  Everything is
deterministic per ``(seed, iters, config)``.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..obs.recorder import NULL_RECORDER
from .generator import FuzzProgram, ProgramGenerator
from .oracles import OracleConfig, OracleFailure, check_program
from .shrink import shrink

#: Optional per-iteration progress callback: (iteration, program, report).
ProgressFn = Callable[[int, FuzzProgram, object], None]


class FuzzFailure:
    """One failing seed: the original program, its shrunk reproducer,
    and the oracle verdicts that condemned it."""

    def __init__(self, seed: int, program: FuzzProgram,
                 shrunk: FuzzProgram,
                 failures: List[OracleFailure]) -> None:
        self.seed = seed
        self.program = program
        self.shrunk = shrunk
        self.failures = failures
        self.reproducer_path: Optional[str] = None

    def __repr__(self) -> str:
        return "<FuzzFailure seed=%d %s>" % (
            self.seed, [f.oracle for f in self.failures])


class FuzzReport:
    """Outcome of one campaign."""

    def __init__(self, seed: int, iterations: int) -> None:
        self.seed = seed
        self.iterations = iterations
        self.failures: List[FuzzFailure] = []
        #: (seed, oracle, model) explorations that hit the path budget.
        self.inconclusive: List[Tuple[int, str, str]] = []
        #: seeds whose relaxed outcomes exceeded SC (oracle 4 exercised).
        self.violating_seeds: List[int] = []
        self.paths = 0
        #: aggregate exploration-reduction stats across all oracles.
        self.pruned = 0
        self.cache_hits = 0
        self.estimated_unreduced = 0
        self.duration = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            "fuzz: %d programs (seeds %d..%d), %d exhaustive paths, %.1fs"
            % (self.iterations, self.seed,
               self.seed + self.iterations - 1, self.paths, self.duration),
            "  synthesis exercised on %d violating program(s)"
            % len(self.violating_seeds),
        ]
        if self.estimated_unreduced > self.paths:
            lines.append(
                "  reduction: %d paths explored vs >=%d unreduced "
                "(%.1fx; %d branches slept, %d cache hits)"
                % (self.paths, self.estimated_unreduced,
                   self.estimated_unreduced / max(1, self.paths),
                   self.pruned, self.cache_hits))
        if self.inconclusive:
            lines.append("  %d inconclusive exploration(s) (path budget): %s"
                         % (len(self.inconclusive),
                            sorted({s for s, _, _ in self.inconclusive})))
        if self.failures:
            lines.append("  %d FAILING seed(s):" % len(self.failures))
            for failure in self.failures:
                for verdict in failure.failures:
                    lines.append("    seed %d: oracle %s under %s: %s"
                                 % (failure.seed, verdict.oracle,
                                    verdict.model, verdict.detail))
                if failure.reproducer_path:
                    lines.append("    reproducer: %s"
                                 % failure.reproducer_path)
        else:
            lines.append("  all oracles passed")
        return "\n".join(lines)


def run_campaign(seed: int = 0, iters: int = 50,
                 oracle_config: Optional[OracleConfig] = None,
                 corpus_dir: Optional[str] = None,
                 shrink_failures: bool = True,
                 progress: Optional[ProgressFn] = None,
                 recorder=NULL_RECORDER) -> FuzzReport:
    """Fuzz ``iters`` programs starting at *seed*; return the report.

    On failure the program is shrunk against its first failing oracle
    and, when *corpus_dir* is given, written there as a ``.c`` reproducer
    (the corpus test replays every file through the oracles).
    *recorder* observes each program's oracle suite (see
    :func:`~repro.fuzz.oracles.check_module`); the shrinker's re-checks
    are not recorded.
    """
    oracle_cfg = oracle_config or OracleConfig()
    generator = ProgramGenerator()
    report = FuzzReport(seed, iters)
    start = time.perf_counter()

    for iteration, program in enumerate(generator.programs(seed, iters)):
        oracle_report = check_program(program, oracle_cfg,
                                      recorder=recorder)
        report.paths += oracle_report.paths
        report.pruned += oracle_report.pruned
        report.cache_hits += oracle_report.cache_hits
        report.estimated_unreduced += oracle_report.estimated_unreduced
        for oracle, model in oracle_report.inconclusive:
            report.inconclusive.append((program.seed, oracle, model))
        if oracle_report.violating_models:
            report.violating_seeds.append(program.seed)
        if progress is not None:
            progress(iteration, program, oracle_report)
        if oracle_report.ok:
            continue

        shrunk = program
        if shrink_failures:
            first = oracle_report.failures[0]
            shrunk = shrink(program,
                            _oracle_predicate(first.oracle, oracle_cfg))
        failure = FuzzFailure(program.seed, program, shrunk,
                              oracle_report.failures)
        if corpus_dir is not None:
            failure.reproducer_path = write_reproducer(corpus_dir, failure)
        report.failures.append(failure)

    report.duration = time.perf_counter() - start
    return report


def _oracle_predicate(oracle: str,
                      config: OracleConfig) -> Callable[[FuzzProgram], bool]:
    """Shrinker check: does *oracle* still fail on the candidate?"""
    def still_fails(candidate: FuzzProgram) -> bool:
        try:
            result = check_program(candidate, config)
        except Exception:
            # A candidate that breaks the toolchain is not a reduction of
            # *this* failure; reject it and keep shrinking elsewhere.
            return False
        return any(f.oracle == oracle for f in result.failures)
    return still_fails


def write_reproducer(corpus_dir: str, failure: FuzzFailure) -> str:
    """Serialize a shrunk failing program as a corpus ``.c`` file."""
    os.makedirs(corpus_dir, exist_ok=True)
    first = failure.failures[0]
    path = os.path.join(corpus_dir, "seed%d_%s_%s.c"
                        % (failure.seed, first.oracle, first.model))
    header = [
        "// repro fuzz reproducer (auto-generated, delta-debugged)",
        "// seed: %d" % failure.seed,
    ]
    for verdict in failure.failures:
        header.append("// oracle %s under %s: %s"
                      % (verdict.oracle, verdict.model, verdict.detail))
    header.append("// statements: %d (from %d)"
                  % (failure.shrunk.statement_count(),
                     failure.program.statement_count()))
    with open(path, "w") as handle:
        handle.write("\n".join(header) + "\n")
        handle.write(failure.shrunk.source())
    return path

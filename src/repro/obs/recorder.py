"""The recorder — the pipeline's single instrumentation entry point.

The synthesis engine (and the check-only path) talk to one object, a
*recorder*, at every phase boundary: round start/end, execution-batch
folding, SAT solving, fence enforcement, module broadcast.  Two
implementations:

* :data:`NULL_RECORDER` (a :class:`NullRecorder`) — every method is a
  no-op and ``span`` returns a shared do-nothing context manager.  This
  is the default everywhere, so an uninstrumented run pays one attribute
  lookup + call per hook and nothing else.
* :class:`Recorder` — aggregates deterministic metrics into a
  :class:`~repro.obs.metrics.MetricsRegistry`, optionally records spans
  into a :class:`~repro.obs.trace.SpanTracer` (Chrome trace JSON), and
  optionally drives a live :class:`~repro.obs.progress.ProgressReporter`.

Determinism: every value fed to ``inc``/``observe`` comes from
:class:`~repro.parallel.summary.ExecutionSummary` fields or SAT counters
that are functions of the (config, seed) alone, and summaries are folded
in execution-index order — so ``aggregates()`` is identical for serial
and multiprocess runs.  Wall-clock only ever lands in the ``timing`` and
``workers`` sections and in the trace file.
"""

from __future__ import annotations

import time
from typing import Optional

from .metrics import MetricsRegistry
from .progress import ProgressReporter
from .trace import SpanTracer


class _NullSpan:
    """A context manager that does nothing (shared singleton)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The do-nothing recorder; also the interface definition.

    ``enabled`` lets call sites skip building expensive arguments
    (e.g. SAT stat dicts) when no one is listening.
    """

    enabled = False

    def span(self, name: str, **args) -> "_NullSpan":
        """Time a phase: ``with recorder.span("sat_solve"): ...``."""
        return _NULL_SPAN

    def execution(self, summary) -> None:
        """Fold one execution summary's metrics (index order)."""

    def sat(self, stats: dict) -> None:
        """Fold one SAT-solving episode's counters."""

    def round_end(self, report, duration: float) -> None:
        """A round's report is final (counts, clauses, fences, timing)."""

    def run_end(self, outcome: str, rounds: int, fences: int,
                duration: float) -> None:
        """The synthesis (or check) run finished."""

    def explore(self, stats) -> None:
        """Fold one exhaustive-exploration run's reduction counters
        (an :class:`~repro.sched.explorer.ExploreStats`)."""

    def vm_compile(self, stats: dict) -> None:
        """Fold the template compiler's counters for this process (a
        ``repro.vm.compile.COMPILE_STATS`` snapshot delta): bodies
        compiled, superinstructions fused, cache hits, compile seconds.
        Per-process — workers of a multiprocess pool compile in their own
        processes — so these land in the machine-dependent sections."""

    def aggregates(self) -> dict:
        return {}

    def snapshot(self) -> dict:
        return {}


#: The shared default recorder: instrumentation off.
NULL_RECORDER = NullRecorder()


class _Span:
    """An active timed span; emits a trace event and a timing sample."""

    __slots__ = ("_recorder", "name", "args", "_start")

    def __init__(self, recorder: "Recorder", name: str, args: dict) -> None:
        self._recorder = recorder
        self.name = name
        self.args = args
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = self._recorder._clock()
        return self

    def __exit__(self, *exc) -> None:
        self._recorder._span_done(self.name, self._start,
                                  self._recorder._clock(), self.args)


class Recorder(NullRecorder):
    """Aggregating recorder: metrics + optional tracer + live progress."""

    enabled = True

    def __init__(self, tracer: Optional[SpanTracer] = None,
                 progress: Optional[ProgressReporter] = None,
                 clock=time.perf_counter) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = tracer
        self.progress = progress
        self._clock = clock
        self._t0 = clock()

    # -- spans ---------------------------------------------------------

    def span(self, name: str, **args) -> _Span:
        return _Span(self, name, args)

    def _span_done(self, name: str, start: float, end: float,
                   args: dict) -> None:
        duration = end - start
        self.metrics.observe_timing("span/%s" % name, duration)
        if self.tracer is not None:
            self.tracer.add(name, (start - self._t0) * 1e6,
                            duration * 1e6, args=args or None)

    # -- deterministic pipeline hooks ----------------------------------

    def execution(self, summary) -> None:
        m = self.metrics
        m.inc("exec/runs")
        m.inc("exec/steps", summary.steps)
        m.observe("exec/steps", summary.steps)
        flushes, depth_hwm = summary.metrics
        m.inc("exec/flushes", flushes)
        m.observe("exec/flushes", flushes)
        m.observe("exec/buffer_depth_hwm", depth_hwm)
        if not summary.usable:
            m.inc("exec/discarded")
        elif summary.violation is not None:
            m.inc("exec/violations")
        if summary.worker is not None:
            m.inc_worker(summary.worker)

    def sat(self, stats: dict) -> None:
        m = self.metrics
        m.inc("sat/solves", stats.get("solves", 0))
        m.inc("sat/decisions", stats.get("decisions", 0))
        m.inc("sat/conflicts", stats.get("conflicts", 0))
        m.inc("sat/propagations", stats.get("propagations", 0))
        m.inc("sat/learned", stats.get("learned", 0))

    def round_end(self, report, duration: float) -> None:
        m = self.metrics
        m.inc("engine/rounds")
        m.inc("engine/clauses", report.clauses)
        m.inc("engine/fences_inserted", len(report.inserted))
        m.inc("engine/unfixable", report.unfixable)
        m.observe("round/violations", report.violations)
        m.observe("round/discarded", report.discarded)
        m.observe("round/predicates", report.distinct_predicates)
        m.observe("round/clauses", report.clauses)
        m.observe_timing("round/duration", duration)
        if self.progress is not None:
            self.progress.round_end(report, duration)

    def run_end(self, outcome: str, rounds: int, fences: int,
                duration: float) -> None:
        self.metrics.observe_timing("run/duration", duration)
        if self.progress is not None:
            self.progress.run_end(outcome, rounds, fences, duration)

    def explore(self, stats) -> None:
        m = self.metrics
        m.inc("explore/runs")
        m.inc("explore/paths", stats.paths)
        m.inc("explore/pruned_branches", stats.pruned)
        m.inc("explore/cache_hits", stats.cache_hits)
        m.inc("explore/cache_states", stats.cache_states)
        m.inc("explore/snapshots", stats.snapshots)
        m.inc("explore/restores", stats.restores)
        m.inc("explore/step_limited", stats.step_limited)
        m.inc("explore/cycles", stats.cycles)
        m.inc("explore/persistent", stats.persistent)
        if stats.snapshot_bytes > 0:
            m.observe("explore/snapshot_bytes", stats.snapshot_bytes)

    def vm_compile(self, stats: dict) -> None:
        m = self.metrics
        for key in ("functions", "recompiles", "instructions",
                    "superinstructions", "fused_ops", "cache_hits"):
            m.inc_process("vm/compile/%s" % key, stats.get(key, 0))
        m.observe_timing("vm/compile/seconds", stats.get("seconds", 0.0))

    # -- output --------------------------------------------------------

    def aggregates(self) -> dict:
        """Deterministic counters + histograms (serial ≡ parallel)."""
        return self.metrics.aggregates()

    def snapshot(self) -> dict:
        """All metric sections, as JSON-serialisable dicts."""
        return self.metrics.snapshot()

    def write_trace(self, destination) -> None:
        """Write the Chrome trace (no-op without a tracer)."""
        if self.tracer is not None:
            self.tracer.write(destination)

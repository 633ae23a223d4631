"""Per-layer spans for the traced pass.

The traced pass wraps each layer's public functions from here, outside
``src/``: module-level functions are rebound in every ``repro`` module
that imported them, methods are replaced on their classes.  Each wrapper
opens a span on entry and closes it on exit; a span's *self time* is its
duration minus the time its child spans cover, summed per span name.
Counts come either from call counts or from the values the wrapped
functions return (``ExecutionResult``, ``ExplorationResult``, ...).

Spans of hot functions (one per VM step or memory access) are folded
into per-name totals as they close; only coarse spans (a task, a
synthesis run, an exploration, a SAT call, ...) are kept individually
for the Chrome trace.

Worker processes of a ``workers=2`` pool are forked from the traced
process, so they inherit the wrappers.  Each worker spools its totals to
a file in ``spool_dir`` after every batch, and :meth:`Tracer.collect`
folds them back in, so per-layer counts and self times cover every
process.  Self times are then summed over processes.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import pkgutil
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import repro
from repro.fuzz.generator import ProgramGenerator
from repro.memory.models import StoreBufferModel
from repro.obs.trace import SpanTracer
from repro.parallel import process
from repro.parallel.process import ProcessPool
from repro.parallel.serial import SerialPool
from repro.sched.flush_random import FlushDelayScheduler
from repro.spec.sequential import SequentialSpec
from repro.spec.specifications import Specification
from repro.synth.engine import SynthesisEngine
from repro.synth.formula import RepairFormula
from repro.vm.compile import COMPILE_STATS, CompiledVM
from repro.vm.interp import VM

clock = time.perf_counter

#: Layer of each span name (its self time is charged to that layer).
LAYER_OF = {
    "task": "bench",
    "vm.run_execution": "vm",
    "vm.make": "vm",
    "vm.step": "vm",
    "vm.run_local": "vm",
    "vm.snapshot": "vm",
    "vm.restore": "vm",
    "vm.code_for": "vm",
    "memory.read": "memory",
    "memory.write": "memory",
    "memory.pre_cas": "memory",
    "memory.fence": "memory",
    "memory.flush_one": "memory",
    "memory.drain": "memory",
    "sched.flush_random.run": "sched.flush_random",
    "sched.explorer.explore": "sched.explorer",
    "spec.check": "spec",
    "spec.apply": "spec",
    "parallel.broadcast": "parallel",
    "parallel.wait": "parallel",
    "parallel.summarize": "parallel",
    "synth.synthesize": "synth",
    "synth.add_execution": "synth",
    "synth.enforce": "synth",
    "sat.minimum_model": "sat",
    "minic.compile": "minic",
    "fuzz.run_campaign": "fuzz",
    "fuzz.check_program": "fuzz",
    "fuzz.generate": "fuzz",
}

#: Spans kept one by one for the Chrome trace; all others are totals only.
KEPT = frozenset((
    "task", "synth.synthesize", "synth.enforce", "sat.minimum_model",
    "parallel.broadcast", "sched.explorer.explore", "minic.compile",
    "fuzz.run_campaign", "fuzz.check_program", "fuzz.generate",
))

_MODEL_METHODS = ("read", "write", "pre_cas", "fence", "flush_one", "drain")

AfterFn = Callable[["Tracer", tuple, dict, object], None]


def _import_all() -> None:
    """Import every ``repro`` module, so that each ``from x import f``
    binding exists before the wrappers replace it."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _subclasses(cls) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class Tracer:
    """Span stack, per-span totals and result-derived counts."""

    def __init__(self, spool_dir: Optional[str] = None) -> None:
        self.spool_dir = spool_dir
        #: Open spans, innermost last: ``[name, seconds covered by children]``.
        self.stack: List[list] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        #: Kept spans: ``(name, start, end, parent name, args)``.
        self.spans: List[Tuple[str, float, float, Optional[str], dict]] = []
        self._installed: List[Tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._spooled = 0
        self._compile_base: Optional[dict] = None

    # -- spans ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             after: Optional[AfterFn] = None,
             label: Optional[Callable[[tuple], dict]] = None) -> Callable:
        """*fn* inside a span called *name*.

        ``after(tracer, args, kwargs, result)`` derives counts from the
        call; its cost is charged to no layer.  ``label(args)`` gives the
        arguments a kept span shows in the Chrome trace.
        """
        stack, calls, self_s = self.stack, self.calls, self.self_s
        keep = name in KEPT
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if keep:
                    spans.append((name, start, end,
                                  stack[-1][0] if stack else None,
                                  label(args) if label else {}))
            if after is not None:
                begin = clock()
                after(self, args, kwargs, result)
                if stack:
                    stack[-1][1] += clock() - begin
            return result
        return wrapper

    # -- installation --------------------------------------------------

    def patch_function(self, module_name: str, attr: str, name: str,
                       after: Optional[AfterFn] = None) -> None:
        """Wrap a module-level function and rebind every ``repro``
        module's reference to it (``from x import f`` makes copies)."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self.wrap(name, original, after)
        for module_name_, module in list(sys.modules.items()):
            if module is None or not (module_name_ == "repro"
                                      or module_name_.startswith("repro.")):
                continue
            for binding, value in list(vars(module).items()):
                if value is original:
                    setattr(module, binding, wrapper)
                    self._installed.append((module, binding, original))

    def patch_method(self, cls: type, attr: str, name: str,
                     after: Optional[AfterFn] = None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, after))
        self._installed.append((cls, attr, original))

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics need."""
        _import_all()
        self._compile_base = COMPILE_STATS.snapshot()
        self.patch_function("repro.vm.driver", "run_execution",
                            "vm.run_execution", _after_execution)
        self.patch_function("repro.vm.compile", "make_vm", "vm.make")
        self.patch_function("repro.vm.compile", "code_for", "vm.code_for")
        for cls in (VM, CompiledVM):
            self.patch_method(cls, "step", "vm.step")
            self.patch_method(cls, "run_local", "vm.run_local",
                              _after_run_local)
        self.patch_method(VM, "snapshot", "vm.snapshot")
        self.patch_method(VM, "restore", "vm.restore")
        for cls in _subclasses(StoreBufferModel):
            for attr in _MODEL_METHODS:
                if attr in cls.__dict__:
                    self.patch_method(cls, attr, "memory." + attr)
        self.patch_method(FlushDelayScheduler, "run",
                          "sched.flush_random.run")
        self.patch_function("repro.sched.explorer", "explore",
                            "sched.explorer.explore", _after_explore)
        for cls in _subclasses(Specification):
            if "check" in cls.__dict__:
                self.patch_method(cls, "check", "spec.check", _after_check)
        for cls in _subclasses(SequentialSpec):
            if "apply" in cls.__dict__:
                self.patch_method(cls, "apply", "spec.apply")
        for cls in (SerialPool, ProcessPool):
            self.patch_method(cls, "broadcast", "parallel.broadcast")
            self._patch_pool_run(cls)
        self.patch_function("repro.parallel.summary", "summarize_execution",
                            "parallel.summarize", _after_summarize)
        self._patch_worker_batches()
        self.patch_method(SynthesisEngine, "synthesize", "synth.synthesize",
                          _after_synthesize)
        self.patch_method(RepairFormula, "add_execution",
                          "synth.add_execution")
        self.patch_function("repro.synth.enforce", "enforce", "synth.enforce")
        self.patch_function("repro.sat.models", "minimum_model",
                            "sat.minimum_model", _after_sat)
        self.patch_function("repro.minic.lower", "compile_source",
                            "minic.compile")
        self.patch_method(ProgramGenerator, "generate", "fuzz.generate")
        self.patch_function("repro.fuzz.runner", "run_campaign",
                            "fuzz.run_campaign", _after_campaign)
        self.patch_function("repro.fuzz.oracles", "check_program",
                            "fuzz.check_program")

    def uninstall(self) -> None:
        """Put every original back and fold in the compile counters."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        self._fold_compile_stats()

    def _patch_pool_run(self, cls: type) -> None:
        """Time what the engine waits on: each ``next()`` of the
        summaries iterator ``pool.run`` returns."""
        original = cls.__dict__["run"]
        tracer = self

        @functools.wraps(original)
        def run(pool, jobs):
            return _WaitIterator(tracer, original(pool, jobs))
        setattr(cls, "run", run)
        self._installed.append((cls, "run", original))

    def _patch_worker_batches(self) -> None:
        """Spool a worker's totals after each batch it runs."""
        original = process._run_batch
        tracer = self

        @functools.wraps(original)
        def _run_batch(version, blob, jobs):
            if tracer._pid != os.getpid():
                tracer._reset_in_worker()
            result = original(version, blob, jobs)
            tracer._spool()
            return result
        # functools.wraps keeps the qualified name, so the executor still
        # pickles the batch function by reference.
        setattr(process, "_run_batch", _run_batch)
        self._installed.append((process, "_run_batch", original))

    # -- worker spooling -----------------------------------------------

    def _reset_in_worker(self) -> None:
        self._pid = os.getpid()
        self._spooled = 0
        for table in (self.calls, self.self_s, self.counts, self.maxima):
            table.clear()
        self.stack.clear()
        self.spans.clear()
        self._compile_base = COMPILE_STATS.snapshot()

    def _spool(self) -> None:
        self._fold_compile_stats()
        path = os.path.join(self.spool_dir, "worker-%d-%d.json"
                            % (self._pid, self._spooled))
        self._spooled += 1
        with open(path, "w") as handle:
            json.dump({"calls": self.calls, "self_s": self.self_s,
                       "counts": self.counts, "maxima": self.maxima}, handle)
        for table in (self.calls, self.self_s, self.counts, self.maxima):
            table.clear()

    def collect(self) -> None:
        """Fold every spooled worker file into this tracer's totals."""
        if self.spool_dir is None or not os.path.isdir(self.spool_dir):
            return
        for entry in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, entry)
            with open(path) as handle:
                data = json.load(handle)
            os.remove(path)
            for key in ("calls", "self_s", "counts"):
                getattr(self, key).update(data[key])
            for key, value in data["maxima"].items():
                self.maxima[key] = max(self.maxima[key], value)

    def _fold_compile_stats(self) -> None:
        if self._compile_base is None:
            return
        now = COMPILE_STATS.snapshot()
        self.counts["vm.compile_misses"] += (
            now["functions"] - self._compile_base["functions"])
        self.counts["vm.compile_s"] += (
            now["seconds"] - self._compile_base["seconds"])
        self._compile_base = now

    # -- output --------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        """Self time per layer, summed over its span names."""
        layers: Counter = Counter()
        for name, seconds in self.self_s.items():
            layers[LAYER_OF[name]] += seconds
        return dict(layers)

    def chrome_trace(self, t0: float) -> dict:
        """Kept spans as Chrome trace-event JSON (``repro.obs.trace``)."""
        tracer = SpanTracer(pid=self._pid)
        for name, start, end, parent, args in self.spans:
            tracer.add(name, (start - t0) * 1e6, (end - start) * 1e6,
                       args=dict(args, parent=parent,
                                 layer=LAYER_OF[name]))
        trace = tracer.to_json()
        trace["otherData"] = {"self_s_by_span": dict(self.self_s),
                              "self_s_by_layer": self.layer_self_s()}
        return trace



class _WaitIterator:
    """The summaries iterator of ``pool.run`` with each ``next()`` in a
    ``parallel.wait`` span.  On the serial pool the executions run inside
    that span, so its self time is only the hand-off; on a process pool
    it is the time the engine blocks on workers."""

    def __init__(self, tracer: Tracer, inner) -> None:
        self._inner = inner
        self._next = tracer.wrap("parallel.wait", inner.__next__)

    def __iter__(self) -> "_WaitIterator":
        return self

    def __next__(self):
        return self._next()

    def close(self) -> None:
        self._inner.close()


# ----------------------------------------------------------------------
# Counts derived from return values


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _after_run_local(tracer: Tracer, args, kwargs, executed) -> None:
    tracer.counts["vm.local_steps"] += executed


def _after_execution(tracer: Tracer, args, kwargs, result) -> None:
    counts = tracer.counts
    counts["memory.flushes"] += result.flushes
    counts["memory.predicates"] += len(result.predicates)
    if result.max_buffer_depth > tracer.maxima["memory.max_buffer_depth"]:
        tracer.maxima["memory.max_buffer_depth"] = result.max_buffer_depth
    scheduler = _arg(args, kwargs, 2, "scheduler")
    if isinstance(scheduler, FlushDelayScheduler) and not result.usable:
        counts["sched.flush_random.discarded"] += 1


def _after_explore(tracer: Tracer, args, kwargs, result) -> None:
    counts = tracer.counts
    counts["sched.explorer.paths"] += result.paths
    counts["sched.explorer.incomplete"] += not result.complete
    stats = result.stats
    if stats is not None:
        counts["sched.explorer.pruned"] += stats.pruned
        counts["sched.explorer.cache_hits"] += stats.cache_hits
        counts["sched.explorer.cache_states"] += stats.cache_states
        counts["sched.explorer.estimated_unreduced"] += \
            stats.estimated_unreduced


def _after_check(tracer: Tracer, args, kwargs, verdict) -> None:
    if verdict is not None:
        tracer.counts["spec.violations"] += 1


def _after_summarize(tracer: Tracer, args, kwargs, summary) -> None:
    tracer.counts["parallel.summary_bytes"] += len(
        pickle.dumps(summary, protocol=pickle.HIGHEST_PROTOCOL))


def _after_synthesize(tracer: Tracer, args, kwargs, result) -> None:
    counts = tracer.counts
    counts["synth.rounds"] += len(result.rounds)
    counts["synth.executions"] += result.total_executions
    counts["synth.clauses"] += sum(r.clauses for r in result.rounds)
    counts["synth.fences"] += len(result.placements)


def _after_sat(tracer: Tracer, args, kwargs, model) -> None:
    clauses = _arg(args, kwargs, 0, "clauses")
    tracer.counts["sat.clauses"] += len(clauses)
    tracer.counts["sat.vars"] += len({abs(lit) for clause in clauses
                                      for lit in clause})


def _after_campaign(tracer: Tracer, args, kwargs, report) -> None:
    tracer.counts["fuzz.violating_programs"] += len(report.violating_seeds)
    tracer.counts["fuzz.inconclusive"] += len(report.inconclusive)

"""Differential oracles: layered cross-checks for one program.

Each oracle states a property the reproduction must satisfy *by
construction*, so any failure is a bug in the semantics, the explorer,
the scheduler, or the synthesis engine — never in the generated program:

1. **inclusion** — outcome-set inclusion ``SC ⊆ TSO ⊆ PSO`` (paper
   Semantics 1/2: relaxation only ever *adds* behaviours).
2. **fenced_sc** — the fully-fenced program has *exactly* the SC outcome
   set under every relaxed model (a full fence after every store keeps
   the buffers empty; this is the semantic ground truth the paper's
   repair relies on).
3. **random_subset** — outcomes observed by the random flush-delaying
   scheduler are a subset of the exhaustive set (the sampler must not
   invent schedules the semantics does not admit).
4. **synthesis** — end-to-end soundness: running the synthesis engine on
   a program whose relaxed outcomes exceed SC must yield a repaired
   module that exhaustively admits no non-SC outcome.

Explorations that blow the path budget, or whose paths the step limit
cut, make the affected oracles *inconclusive* (recorded, never failed):
a partial outcome set proves nothing either way.

All oracles accept a ``model_factory`` so tests can swap in deliberately
broken models and watch the right oracle catch them.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..ir.instructions import FenceKind
from ..ir.module import Module
from ..ir.passes.fences import insert_fence_after
from ..memory.models import StoreBufferModel, make_model
from ..obs.recorder import NULL_RECORDER
from ..sched.explorer import ExplorationResult, explore
from ..sched.flush_random import FlushDelayScheduler
from ..spec.specifications import Specification
from ..synth import SynthesisConfig, SynthesisEngine, SynthesisOutcome
from ..vm.driver import ExecutionResult, run_execution, thread_results
from .generator import FuzzProgram

Outcome = Tuple
OutcomeSet = FrozenSet[Outcome]

#: name -> fresh model instance (injectable for broken-model testing).
ModelFactory = Callable[[str], StoreBufferModel]

#: Scheduler-seed offset between synthesis attempts.  The engine scans
#: seeds ``cfg.seed .. cfg.seed + rounds*K`` (plus ``CHECK_SEED_STRIDE``
#: for its check pass), so consecutive small seeds re-sample almost the
#: same schedules; a stride beyond both ranges makes every attempt an
#: independent draw.
SYNTH_SEED_STRIDE = 1 << 25

#: Flush probability of the random-subset oracle's scheduler runs.
RANDOM_FLUSH_PROB = 0.3

#: Flush probability of a model's first synthesis attempt.
SYNTH_FLUSH_PROB = {"tso": 0.15, "pso": 0.4}

#: Flush probabilities of the retry attempts, in turn.  Which schedules
#: expose a reorder depends heavily on how long stores linger in the
#: buffer, so retries sweep the flush rate instead of just sampling more.
SYNTH_FLUSH_SCHEDULE = (0.2, 0.5, 0.1)


def fully_fenced(module: Module) -> Module:
    """Clone *module* with a full fence after every store.

    Stores are the only buffering instructions (CAS commits directly
    after its drain), so with a fence directly after each one a thread's
    buffer holds at most its own just-issued store, which nothing can
    observe before the fence drains it.  The program is therefore
    SC-equivalent under any store-buffer model — the reference the
    **fenced_sc** oracle compares against.
    """
    fenced = module.clone()
    labels = [instr.label for fn in fenced.functions.values()
              for instr in fn.body if instr.is_store()]
    for label in labels:
        insert_fence_after(fenced, label, FenceKind.FULL,
                           synthesized=False)
    return fenced


class OutcomeSpec(Specification):
    """Spec: the execution's thread-result tuple must be in *allowed*.

    This is how the synthesis-soundness oracle phrases "behaves like SC"
    to the engine: the allowed set is the exhaustively computed SC
    outcome set, so any relaxed-only outcome counts as a violation and
    feeds ``avoid(p)`` clauses into the repair formula.
    """

    name = "outcome_set"

    def __init__(self, allowed: OutcomeSet) -> None:
        self.allowed = frozenset(allowed)

    def check(self, result: ExecutionResult) -> Optional[str]:
        crash = self._crash(result)
        if crash is not None:
            return crash
        if result.thread_results not in self.allowed:
            return ("outcome %r not admitted under SC"
                    % (result.thread_results,))
        return None


class OracleFailure:
    """One oracle violation on one program/model."""

    def __init__(self, oracle: str, model: str, detail: str) -> None:
        self.oracle = oracle
        self.model = model
        self.detail = detail

    def __repr__(self) -> str:
        return "<OracleFailure %s/%s: %s>" % (
            self.oracle, self.model, self.detail[:80])


class OracleConfig:
    """Budgets and knobs shared by the four oracles.

    ``models`` lists the relaxed models to differentiate against SC.
    ``model_factory`` builds every memory-model instance the oracles use
    (exploration, random sampling, and synthesis verification); swapping
    it for a broken variant is how the oracle layer itself is tested.
    """

    def __init__(self,
                 models: Tuple[str, ...] = ("tso", "pso"),
                 max_paths: int = 50_000,
                 max_total_paths: int = 250_000,
                 max_steps: int = 4_000,
                 random_runs: int = 40,
                 synth_executions: int = 150,
                 synth_rounds: int = 10,
                 synth_attempts: int = 3,
                 model_factory: ModelFactory = make_model) -> None:
        for model in models:
            if model == "sc":
                raise ValueError("models lists relaxed models; SC is "
                                 "always the reference")
        self.models = tuple(models)
        #: Path budget per exploration; an exhausted exploration makes
        #: its oracle inconclusive for that program.
        self.max_paths = max_paths
        #: Path budget for one program's whole oracle suite (up to ~10
        #: explorations run per program; this bounds the worst seed).
        self.max_total_paths = max_total_paths
        self.max_steps = max_steps
        self.random_runs = random_runs
        self.synth_executions = synth_executions
        self.synth_rounds = synth_rounds
        self.synth_attempts = synth_attempts
        self.model_factory = model_factory


class OracleReport:
    """Everything the oracle suite learned about one program."""

    def __init__(self) -> None:
        self.failures: List[OracleFailure] = []
        #: (oracle, model) pairs whose exploration hit the path budget or
        #: the step limit — inconclusive, not failing.
        self.inconclusive: List[Tuple[str, str]] = []
        #: model name -> exhaustive outcome set (as explored).
        self.outcomes: Dict[str, OutcomeSet] = {}
        #: total exhaustively explored paths (cost accounting).
        self.paths = 0
        #: branches skipped by sleep-set reduction across explorations.
        self.pruned = 0
        #: explorations cut short by the state-dedup cache.
        self.cache_hits = 0
        #: lower bound on what the unreduced replay tree would have cost.
        self.estimated_unreduced = 0
        #: models whose relaxed outcomes exceeded SC (synthesis ran).
        self.violating_models: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def __repr__(self) -> str:
        return "<OracleReport %s, %d paths, %d inconclusive>" % (
            "ok" if self.ok else "%d FAILURES" % len(self.failures),
            self.paths, len(self.inconclusive))


def check_program(program: FuzzProgram,
                  config: Optional[OracleConfig] = None,
                  recorder=NULL_RECORDER) -> OracleReport:
    """Run all four oracles on a generated program."""
    return check_module(program.compile(), config, recorder=recorder,
                        seed=program.seed)


def check_module(module: Module,
                 config: Optional[OracleConfig] = None,
                 recorder=NULL_RECORDER,
                 seed: Optional[int] = None) -> OracleReport:
    """Run all four oracles on a compiled module (entry ``main``).

    *recorder* gets every exploration's counters (``explore/*``) and one
    span per oracle, named after it, whose args carry the program's
    generator *seed* when there is one.
    """
    cfg = config or OracleConfig()
    report = OracleReport()
    checker = _Checker(cfg, report, recorder)
    span_args = {} if seed is None else {"seed": seed}

    with recorder.span("inclusion", **span_args):
        explored = {}
        for model in ("sc",) + cfg.models:
            explored[model] = checker.explore(module, model, "inclusion")
        if explored["sc"] is None:
            return report  # nothing is conclusive without the SC reference
        sc_outcomes = frozenset(explored["sc"].outcomes)
        report.outcomes["sc"] = sc_outcomes
        checker.check_inclusion(explored)
    with recorder.span("fenced_sc", **span_args):
        checker.check_fenced_sc(module, sc_outcomes)
    with recorder.span("random_subset", **span_args):
        checker.check_random_subset(module, explored)
    with recorder.span("synthesis", **span_args):
        checker.check_synthesis(module, sc_outcomes, explored)
    return report


class _Checker:
    """Implementation of the four oracles against one report."""

    def __init__(self, config: OracleConfig, report: OracleReport,
                 recorder=NULL_RECORDER) -> None:
        self.cfg = config
        self.report = report
        self.recorder = recorder

    def explore(self, module: Module, model: str,
                oracle: str) -> Optional[ExplorationResult]:
        """Exhaustively explore, or record the oracle as inconclusive.

        Draws on the per-program total path budget: once a heavy seed
        has burned it, remaining explorations are inconclusive rather
        than letting one program stall the whole campaign.  An
        exploration that is not exact — budget exhausted, or a path cut
        by the step limit — is inconclusive too.
        """
        cfg = self.cfg
        remaining = cfg.max_total_paths - self.report.paths
        budget = min(cfg.max_paths, remaining)
        if budget <= 0:
            self.report.inconclusive.append((oracle, model))
            return None
        result = explore(
            module, model, outcome_fn=thread_results,
            max_paths=budget, max_steps=cfg.max_steps,
            model_factory=functools.partial(cfg.model_factory, model),
            recorder=self.recorder)
        self.report.paths += result.paths
        if result.stats is not None:
            self.report.pruned += result.stats.pruned
            self.report.cache_hits += result.stats.cache_hits
            self.report.estimated_unreduced += result.stats.estimated_unreduced
        if not result.exact:
            self.report.inconclusive.append((oracle, model))
            return None
        return result

    # -- oracle 1 ------------------------------------------------------

    def check_inclusion(self, explored) -> None:
        """SC ⊆ TSO ⊆ PSO on exhaustive outcome sets."""
        chain = [("sc", model) for model in self.cfg.models
                 if explored.get(model) is not None]
        if explored.get("tso") is not None \
                and explored.get("pso") is not None:
            chain.append(("tso", "pso"))
        for weaker, stronger in chain:
            self.report.outcomes[stronger] = \
                frozenset(explored[stronger].outcomes)
            missing = explored[weaker].outcomes \
                - explored[stronger].outcomes
            if missing:
                self.report.failures.append(OracleFailure(
                    "inclusion", stronger,
                    "%s outcomes %s not reproducible under %s"
                    % (weaker.upper(), sorted(missing), stronger.upper())))

    # -- oracle 2 ------------------------------------------------------

    def check_fenced_sc(self, module: Module,
                        sc_outcomes: OutcomeSet) -> None:
        """Fully-fenced program ≡ SC under every relaxed model."""
        fenced = fully_fenced(module)
        for model in self.cfg.models:
            result = self.explore(fenced, model, "fenced_sc")
            if result is None:
                continue
            if result.outcomes != sc_outcomes:
                extra = result.outcomes - sc_outcomes
                lost = sc_outcomes - result.outcomes
                self.report.failures.append(OracleFailure(
                    "fenced_sc", model,
                    "fully-fenced outcomes diverge from SC "
                    "(extra: %s, lost: %s)"
                    % (sorted(extra), sorted(lost))))

    # -- oracle 3 ------------------------------------------------------

    def check_random_subset(self, module: Module, explored) -> None:
        """Random flush-scheduler outcomes ⊆ exhaustive outcomes."""
        cfg = self.cfg
        for model in cfg.models:
            exact = explored.get(model)
            if exact is None:
                continue
            for run in range(cfg.random_runs):
                scheduler = FlushDelayScheduler(
                    seed=run, flush_prob=RANDOM_FLUSH_PROB)
                result = run_execution(
                    module, cfg.model_factory(model), scheduler,
                    collect_predicates=False)
                if not result.usable:
                    continue
                outcome = result.thread_results
                if outcome not in exact.outcomes:
                    self.report.failures.append(OracleFailure(
                        "random_subset", model,
                        "random seed %d produced outcome %r outside the "
                        "exhaustive set" % (run, outcome)))
                    break

    # -- oracle 4 ------------------------------------------------------

    def check_synthesis(self, module: Module, sc_outcomes: OutcomeSet,
                        explored) -> None:
        """Repairing a violating program must restore the SC outcome set.

        The engine samples schedules, so one synthesis pass may miss a
        violation the explorer can see; the oracle therefore alternates
        synthesize → exhaustively verify, doubling the execution count,
        sweeping the flush probability, and striding the scheduler-seed
        base on each attempt.  A semantics-level soundness bug (fences
        that do not constrain, predicates on wrong labels) keeps failing
        verification *after the engine observed and repaired violations*
        and is reported; if instead the sampler never produced a single
        violating schedule, the engine was never exercised and the
        oracle is inconclusive for that model.
        """
        cfg = self.cfg
        for model in cfg.models:
            exact = explored.get(model)
            if exact is None or not (exact.outcomes - sc_outcomes):
                continue
            self.report.violating_models.append(model)
            self._check_synthesis_on(module, model, sc_outcomes)

    def _check_synthesis_on(self, module: Module, model: str,
                            sc_outcomes: OutcomeSet) -> None:
        cfg = self.cfg
        spec = OutcomeSpec(sc_outcomes)
        current = module
        observed_last = False
        for attempt in range(cfg.synth_attempts):
            engine = SynthesisEngine(SynthesisConfig(
                memory_model=model,
                flush_prob=self._attempt_flush_prob(model, attempt),
                executions_per_round=cfg.synth_executions * (2 ** attempt),
                max_rounds=cfg.synth_rounds,
                seed=attempt * SYNTH_SEED_STRIDE))
            result = engine.synthesize(current, spec)
            current = result.program
            observed_last = result.total_violations > 0
            if result.outcome is SynthesisOutcome.CANNOT_FIX:
                self.report.failures.append(OracleFailure(
                    "synthesis", model,
                    "engine declared a fence-repairable program "
                    "unfixable: %s"
                    % result.rounds[-1].example_violation))
                return
            verify = self.explore(current, model, "synthesis")
            if verify is None:
                return
            residual = verify.outcomes - sc_outcomes
            if not residual:
                return
        if not observed_last:
            # The explorer can see a residual violation the random
            # sampler never produced, so the last engine run had nothing
            # to repair.  That tests the sampler's coverage, not the
            # engine's soundness — record it like a blown path budget.
            self.report.inconclusive.append(("synthesis", model))
            return
        self.report.failures.append(OracleFailure(
            "synthesis", model,
            "repaired module still admits non-SC outcomes %s after %d "
            "synthesis attempts" % (sorted(residual), cfg.synth_attempts)))

    def _attempt_flush_prob(self, model: str, attempt: int) -> float:
        """Per-model default first, then sweep the retry schedule."""
        if attempt == 0:
            return SYNTH_FLUSH_PROB.get(model, 0.3)
        return SYNTH_FLUSH_SCHEDULE[(attempt - 1) % len(SYNTH_FLUSH_SCHEDULE)]

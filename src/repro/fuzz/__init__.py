"""Differential fuzzing & verification of the store-buffer semantics.

This package hunts semantics and synthesis bugs by construction rather
than by anecdote:

* :mod:`~repro.fuzz.generator` — a seedable :class:`ProgramGenerator`
  emitting small concurrent MiniC programs (2–3 threads, shared globals,
  loads/stores/CAS/fences/branches, bounded loops).
* :mod:`~repro.fuzz.oracles` — layered cross-model checks run on every
  generated program: outcome-set inclusion SC ⊆ TSO ⊆ PSO, fully-fenced
  ≡ SC, random-scheduler ⊆ exhaustive, and end-to-end synthesis
  soundness (repair a violating program, exhaustively re-verify it).
* :mod:`~repro.fuzz.shrink` — a delta-debugging minimizer that reduces a
  failing program while the oracle keeps failing.
* :mod:`~repro.fuzz.runner` — the fuzzing campaign driver behind
  ``repro fuzz``; failures are shrunk and serialized as reproducers.

Every component is deterministic per seed, so a campaign is a pure
function of ``(seed, iterations, configuration)`` — a failing seed in CI
reproduces exactly on a laptop.
"""

from .generator import FuzzProgram, ProgramGenerator
from .oracles import (
    OracleConfig,
    OracleFailure,
    OracleReport,
    OutcomeSpec,
    check_module,
    check_program,
    fully_fenced,
)
from .runner import FuzzFailure, FuzzReport, run_campaign
from .shrink import shrink

__all__ = [
    "FuzzFailure", "FuzzProgram", "FuzzReport", "OracleConfig",
    "OracleFailure", "OracleReport", "OutcomeSpec", "ProgramGenerator",
    "check_module", "check_program", "fully_fenced", "run_campaign",
    "shrink",
]

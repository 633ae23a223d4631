"""The fuzzing campaign driver: reports, corpus files, failure flow."""

import os

import pytest

from repro.fuzz import run_campaign
from repro.minic import compile_source
from tests.test_fuzz_oracles import (
    fence_dropping_factory,
    small_budget_config,
)

pytestmark = pytest.mark.fuzz


def test_small_clean_campaign_with_progress():
    seen = []
    report = run_campaign(seed=3, iters=2,
                          oracle_config=small_budget_config(),
                          progress=lambda i, program, oracle_report:
                          seen.append((i, program.seed, oracle_report.ok)))
    assert report.ok
    assert report.iterations == 2
    assert report.paths > 0
    assert "all oracles passed" in report.summary()
    assert [entry[:2] for entry in seen] == [(0, 3), (1, 4)]
    assert all(ok for _, _, ok in seen)


def test_campaign_is_deterministic():
    first = run_campaign(seed=3, iters=1,
                         oracle_config=small_budget_config())
    second = run_campaign(seed=3, iters=1,
                          oracle_config=small_budget_config())
    assert first.paths == second.paths
    assert first.violating_seeds == second.violating_seeds


def test_broken_model_failure_lands_in_corpus(tmp_path):
    """End-to-end failure path: with the fence-dropping PSO injected,
    a violating seed fails oracle 2, gets shrunk, and is written as a
    reproducer whose source still compiles."""
    cfg = small_budget_config(model_factory=fence_dropping_factory,
                              synth_attempts=1, synth_executions=20,
                              synth_rounds=2, random_runs=5)
    corpus = tmp_path / "corpus"
    report = run_campaign(seed=1, iters=1, oracle_config=cfg,
                          corpus_dir=str(corpus))
    assert not report.ok
    failure = report.failures[0]
    assert failure.reproducer_path is not None
    assert os.path.exists(failure.reproducer_path)
    text = open(failure.reproducer_path).read()
    assert text.startswith("// repro fuzz reproducer")
    assert "// seed: %d" % failure.seed in text
    # The reproducer body (comments are legal MiniC) compiles on its own.
    module = compile_source(text, "reproducer")
    assert "main" in module.functions
    # Shrinking never grows the program.
    assert failure.shrunk.statement_count() \
        <= failure.program.statement_count()
    assert "FAILING seed" in report.summary()


def test_planting_keeps_the_synthesis_oracle_busy():
    """The generator plants store-buffering and message-passing
    skeletons so that a healthy share of programs violate under a weak
    model and exercise the synthesis oracle; a generator or budget
    change that thins them out shows here."""
    iters = 12
    report = run_campaign(seed=0, iters=iters)
    assert report.ok, report.failures
    assert len(report.violating_seeds) >= iters // 4

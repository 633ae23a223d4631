"""The ``repro fuzz`` subcommand and the --explore budget surfacing."""

import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.fuzz


def test_fuzz_subcommand_runs_and_passes(capsys):
    rc = main(["fuzz", "--seed", "3", "--iters", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all oracles passed" in out
    assert "seeds 3..3" in out


def test_fuzz_subcommand_model_selection(capsys):
    rc = main(["fuzz", "--seed", "3", "--iters", "1", "--model", "tso"])
    assert rc == 0
    assert "all oracles passed" in capsys.readouterr().out


def test_fuzz_subcommand_verbose_progress(capsys):
    rc = main(["fuzz", "--seed", "3", "--iters", "1", "-v"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "seed 3:" in captured.err


ORACLES = ("inclusion", "fenced_sc", "random_subset", "synthesis")


def test_fuzz_subcommand_metrics_and_trace(tmp_path, capsys):
    trace = tmp_path / "fuzz-trace.json"
    rc = main(["fuzz", "--seed", "3", "--iters", "2", "-v", "--metrics",
               "--trace", str(trace)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "all oracles passed" in captured.out
    assert "explore/runs: " in captured.out
    assert "explore/paths: " in captured.out
    assert "span/inclusion" in captured.out
    # -v keeps its per-seed lines and adds no round progress.
    assert "seed 3:" in captured.err and "seed 4:" in captured.err
    assert "[round" not in captured.err
    events = json.loads(trace.read_text())["traceEvents"]
    spans = [(e["name"], e["args"]["seed"]) for e in events
             if e["name"] in ORACLES]
    assert sorted(spans) == sorted((oracle, seed) for oracle in ORACLES
                                   for seed in (3, 4))


def test_fuzz_subcommand_profile(capsys):
    rc = main(["fuzz", "--seed", "3", "--iters", "1", "--profile"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all oracles passed" in out
    assert "profile (top 20 by cumulative time):" in out


def test_explore_reports_exact_paths(capsys):
    rc = main(["--explore", "sb"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "exact" in captured.out
    assert "paths" in captured.out
    assert "BUDGET EXHAUSTED" not in captured.out


def test_explore_budget_equal_to_the_path_count_is_complete(capsys):
    # sb has 3 paths under SC and 4 under TSO and PSO.
    rc = main(["--explore", "sb", "--max-paths", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "BUDGET EXHAUSTED" not in out


def test_explore_budget_one_below_the_path_count_is_exhausted(capsys):
    rc = main(["--explore", "sb", "--max-paths", "3"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "SC   (     3 paths, exact)" in out
    assert "TSO  (     3 paths, BUDGET EXHAUSTED)" in out


def test_explore_budget_exhaustion_is_loud(capsys):
    rc = main(["--explore", "sb", "--max-paths", "2"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "BUDGET EXHAUSTED" in captured.out
    assert "lower bounds" in captured.err
    assert "--max-paths" in captured.err

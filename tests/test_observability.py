"""Tests for the observability subsystem (``repro.obs``).

The two load-bearing properties:

* **Determinism** — metric aggregates (counters + histograms) are
  identical between the serial and multiprocess backends for the same
  config/seed, because they are computed from per-execution summary
  fields folded in execution-index order.
* **Zero interference** — an engine with a recorder attached (active or
  null) produces a ``SynthesisResult`` identical to an uninstrumented
  run.
"""

import io
import json

import pytest

from repro.minic import compile_source
from repro.obs import (
    NULL_RECORDER,
    Histogram,
    MetricsRegistry,
    NullRecorder,
    ProgressReporter,
    Recorder,
    SpanTracer,
)
from repro.spec import MemorySafetySpec
from repro.synth import (
    SynthesisConfig,
    SynthesisEngine,
    fence_still_present,
    format_metrics,
    summarize,
)

from .test_parallel_equivalence import MP_ASSERT, config, full_signature


def _module():
    return compile_source(MP_ASSERT, "mp")


def _run(workers, recorder=None, **kw):
    engine = SynthesisEngine(config("pso", 0.3, 3, workers, **kw),
                             recorder=recorder)
    return engine.synthesize(_module(), MemorySafetySpec())


# ----------------------------------------------------------------------
# Determinism of metric aggregates


class TestDeterministicAggregates:
    def test_synthesize_serial_equals_parallel(self):
        aggregates = {}
        for workers in (None, 2):
            recorder = Recorder()
            result = _run(workers, recorder=recorder)
            assert result.total_violations > 0  # exercises the merge
            aggregates[workers] = recorder.aggregates()
        assert aggregates[None] == aggregates[2]
        counters = aggregates[None]["counters"]
        assert counters["exec/runs"] == counters["engine/rounds"] * 120
        assert counters["exec/violations"] > 0
        assert counters["sat/solves"] > 0
        assert aggregates[None]["histograms"]["exec/steps"]["count"] == \
            counters["exec/runs"]

    def test_check_serial_equals_parallel(self):
        aggregates = {}
        for workers in (None, 2):
            recorder = Recorder()
            engine = SynthesisEngine(config("pso", 0.3, 3, workers),
                                     recorder=recorder)
            stats = engine.test_program(_module(), MemorySafetySpec(),
                                        executions=150)
            assert stats.runs == 150
            aggregates[workers] = recorder.aggregates()
        assert aggregates[None] == aggregates[2]
        assert aggregates[None]["counters"]["exec/runs"] == 150

    def test_worker_section_is_backend_specific(self):
        serial, parallel = Recorder(), Recorder()
        _run(None, recorder=serial)
        _run(2, recorder=parallel)
        assert set(serial.snapshot()["workers"]) == {"serial"}
        workers = parallel.snapshot()["workers"]
        assert workers and all(w.startswith("pid") for w in workers)
        # Job counts cover every execution regardless of distribution.
        assert sum(workers.values()) == \
            parallel.snapshot()["counters"]["exec/runs"]


# ----------------------------------------------------------------------
# Zero interference with the synthesis result


class TestNonInterference:
    def test_active_recorder_identical_result(self):
        plain = _run(None)
        recorded = _run(None, recorder=Recorder(tracer=SpanTracer()))
        assert full_signature(plain) == full_signature(recorded)

    def test_null_recorder_identical_result(self):
        plain = _run(None)
        nulled = _run(None, recorder=NULL_RECORDER)
        assert full_signature(plain) == full_signature(nulled)

    def test_parallel_active_recorder_identical_result(self):
        plain = _run(None)
        recorded = _run(2, recorder=Recorder())
        assert full_signature(plain) == full_signature(recorded)

    def test_null_recorder_span_is_reusable_noop(self):
        rec = NullRecorder()
        with rec.span("round", index=1) as span:
            with rec.span("nested") as inner:
                assert inner is span  # the shared singleton
        assert rec.aggregates() == {}
        assert rec.snapshot() == {}
        assert not rec.enabled


# ----------------------------------------------------------------------
# Chrome trace output


class TestTrace:
    def test_trace_file_is_valid_chrome_json(self, tmp_path):
        recorder = Recorder(tracer=SpanTracer())
        _run(None, recorder=recorder)
        path = tmp_path / "trace.json"
        recorder.write_trace(str(path))
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        assert events
        names = {e["name"] for e in events}
        assert {"round", "execute", "broadcast"} <= names
        assert {"sat_solve", "enforce"} <= names  # repairs happened
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)

    def test_spans_nest_within_their_round(self):
        tracer = SpanTracer()
        _run(None, recorder=Recorder(tracer=tracer))
        rounds = [e for e in tracer.events if e["name"] == "round"]
        executes = [e for e in tracer.events if e["name"] == "execute"]
        assert len(rounds) == len(executes)
        for round_ev, exec_ev in zip(rounds, executes):
            assert round_ev["ts"] <= exec_ev["ts"]
            assert exec_ev["ts"] + exec_ev["dur"] <= \
                round_ev["ts"] + round_ev["dur"] + 1e-3

    def test_write_to_stream(self):
        tracer = SpanTracer()
        tracer.add("x", 1.0, 2.0, args={"k": 1})
        buffer = io.StringIO()
        tracer.write(buffer)
        data = json.loads(buffer.getvalue())
        assert [e["ph"] for e in data["traceEvents"]] == ["X"]
        assert data["displayTimeUnit"] == "ms"


# ----------------------------------------------------------------------
# Metrics primitives


class TestMetricsPrimitives:
    def test_histogram_tracks_extremes(self):
        hist = Histogram()
        for value in (5, 1, 9, 3):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap == {"count": 4, "sum": 18, "min": 1, "max": 9,
                        "mean": 4.5}

    def test_empty_histogram(self):
        snap = Histogram().snapshot()
        assert snap["count"] == 0
        assert snap["mean"] == 0.0

    def test_registry_sections_are_separate(self):
        reg = MetricsRegistry()
        reg.inc("a", 2)
        reg.observe("h", 7)
        reg.inc_worker("pid1")
        reg.observe_timing("span/x", 0.5)
        aggregates = reg.aggregates()
        assert set(aggregates) == {"counters", "histograms"}
        snap = reg.snapshot()
        assert snap["workers"] == {"pid1": 1}
        assert snap["timing"]["span/x"]["count"] == 1

    def test_format_metrics_renders_all_sections(self):
        reg = MetricsRegistry()
        reg.inc("exec/runs", 10)
        reg.observe("exec/steps", 40)
        reg.inc_worker("serial", 10)
        reg.observe_timing("round/duration", 0.25)
        text = format_metrics(reg.snapshot())
        assert "exec/runs: 10" in text
        assert "exec/steps: n=1" in text
        assert "round/duration" in text
        assert "serial=10" in text


# ----------------------------------------------------------------------
# Witness limit (satellite) and public enforce helper


class TestWitnessLimit:
    def test_default_cap_is_five(self):
        result = _run(None)
        assert any(r.violations > 5 for r in result.rounds)
        assert all(len(r.witnesses) <= 5 for r in result.rounds)

    def test_custom_cap(self):
        result = _run(None, witness_limit=2)
        assert all(len(r.witnesses) <= 2 for r in result.rounds)
        capped = [r for r in result.rounds if r.violations >= 2]
        assert any(len(r.witnesses) == 2 for r in capped)

    def test_zero_disables_witnesses(self):
        result = _run(None, witness_limit=0)
        assert result.total_violations > 0
        assert result.witnesses == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SynthesisConfig(witness_limit=-1)

    def test_limit_does_not_change_outcome(self):
        assert full_signature(_run(None))[0] == \
            full_signature(_run(None, witness_limit=1))[0]


class TestFenceStillPresent:
    def test_tracks_fence_presence(self):
        result = _run(None)
        module = result.program
        for placement in result.placements:
            assert fence_still_present(module, placement.fence_label)
        assert not fence_still_present(module, 10**9)  # unknown label


# ----------------------------------------------------------------------
# Progress reporter and report integration


class TestProgressAndReport:
    def test_progress_lines(self):
        stream = io.StringIO()
        result = _run(None, recorder=Recorder(
            progress=ProgressReporter(stream)))
        text = stream.getvalue()
        assert "[round 0]" in text
        assert "violations" in text
        assert "[done] %s" % result.outcome.value in text

    def test_summarize_includes_metrics_block(self):
        recorder = Recorder()
        result = _run(None, recorder=recorder)
        text = summarize(result, metrics=recorder.snapshot())
        assert "metrics:" in text
        assert "exec/runs:" in text
        assert "wall clock:" in text

    def test_summarize_without_metrics_unchanged_shape(self):
        result = _run(None)
        text = summarize(result)
        assert "metrics:" not in text
        assert "round 0" in text


# ----------------------------------------------------------------------
# CLI integration


class TestCliObservability:
    def run_cli(self, tmp_path, extra, capsys):
        from repro.cli import main as cli_main

        path = tmp_path / "mp.c"
        path.write_text(MP_ASSERT)
        code = cli_main([str(path), "--model", "pso", "-k", "200",
                         "--seed", "3"] + extra)
        return code, capsys.readouterr()

    def test_trace_flag_writes_valid_json(self, tmp_path, capsys):
        trace = tmp_path / "out.json"
        code, _ = self.run_cli(tmp_path, ["--trace", str(trace)], capsys)
        assert code == 0
        data = json.loads(trace.read_text())
        assert {e["name"] for e in data["traceEvents"]} >= \
            {"round", "execute"}

    def test_metrics_flag_prints_block(self, tmp_path, capsys):
        code, captured = self.run_cli(tmp_path, ["--metrics"], capsys)
        assert code == 0
        assert "metrics:" in captured.out
        assert "exec/runs:" in captured.out

    def test_verbose_flag_reports_on_stderr(self, tmp_path, capsys):
        code, captured = self.run_cli(tmp_path, ["--verbose"], capsys)
        assert code == 0
        assert "[round 0]" in captured.err
        assert "[round 0]" not in captured.out

    def test_check_only_metrics(self, tmp_path, capsys):
        code, captured = self.run_cli(
            tmp_path, ["--check-only", "--metrics"], capsys)
        assert code == 1  # violations found
        assert "metrics:" in captured.out

    def test_witness_limit_flag_rejects_negative(self, tmp_path):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["x.c", "--witness-limit", "-1"])
        args = build_parser().parse_args(["x.c", "--witness-limit", "0"])
        assert args.witness_limit == 0

"""Tests for the observability layer.

Covers the three acceptance properties: JSONL round-trips of tracer
records, null-tracer behavior-neutrality (cycle-identical schedules with
tracing off vs. on), and metric correctness on a hand-built
three-instruction region.
"""

import dataclasses
import json

import numpy as np
import pytest

import repro.core.convergent as convergent_mod
from repro.core import ConvergentScheduler, PreferenceMatrix
from repro.core.metrics import ConvergenceTrace, PassRecord
from repro.faults.chaos import RaisingPass
from repro.machine import ClusteredVLIW, raw_with_tiles
from repro.observability import (
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    QuantileHistogram,
    Tracer,
    active,
    install,
    matrix_delta,
    pass_spans,
    read_jsonl,
    render_profile,
    render_trace,
    sparkline,
    timed,
    tracing,
    uninstall,
)
from repro.workloads import build_benchmark


class TestTracer:
    def test_span_records_duration_and_fields(self):
        # calls: epoch, span start offset, span start, span end
        clock = iter([0.0, 1.0, 2.0, 4.5]).__next__
        tracer = Tracer(clock=clock)
        with tracer.span("phase", color="blue"):
            pass
        (record,) = tracer.records
        assert record.name == "phase"
        assert record.kind == "span"
        assert record.duration_s == pytest.approx(2.5)
        assert record.fields["color"] == "blue"

    def test_spans_nest_with_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.records  # inner closes first
        assert (outer.name, outer.depth) == ("outer", 0)
        assert (inner.name, inner.depth) == ("inner", 1)

    def test_events_are_immediate(self):
        tracer = Tracer()
        tracer.event("tick", n=3)
        assert tracer.events("tick")[0].fields["n"] == 3
        assert tracer.records[0].duration_s is None

    def test_total_seconds_sums_by_name(self):
        clock = iter([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 4.0]).__next__
        tracer = Tracer(clock=clock)
        with tracer.span("work"):
            pass
        with tracer.span("work"):
            pass
        assert tracer.total_seconds("work") == pytest.approx(4.0)

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("converge", region="r0", n=7):
            tracer.event("guard", pass_name="NOISE", guard_kind="health")
        path = tmp_path / "trace.jsonl"
        tracer.write(path)
        back = read_jsonl(path)
        assert [r.to_dict() for r in back] == [r.to_dict() for r in tracer.records]
        # every line is standalone JSON
        for line in path.read_text().strip().splitlines():
            assert json.loads(line)["kind"] in ("span", "event")

    def test_read_jsonl_accepts_literal_text(self):
        tracer = Tracer()
        tracer.event("x", value=1)
        records = read_jsonl(tracer.to_jsonl())
        assert records[0].fields["value"] == 1

    def test_non_json_fields_are_coerced(self):
        tracer = Tracer()
        tracer.event("x", arr=np.float64(2.5), obj=object())
        data = tracer.records[0].to_dict()
        assert data["arr"] == 2.5
        assert isinstance(data["obj"], str)


class TestNullTracer:
    def test_is_disabled_and_silent(self):
        tracer = NullTracer()
        with tracer.span("anything", a=1):
            tracer.event("whatever")
        assert tracer.records == []
        assert not tracer.enabled

    def test_ambient_default_is_null(self):
        uninstall()
        assert active() is NULL_TRACER

    def test_install_and_context_manager(self):
        tracer = Tracer()
        install(tracer)
        try:
            assert active() is tracer
        finally:
            uninstall()
        with tracing(tracer):
            with timed("phase"):
                pass
            assert active() is tracer
        assert active() is NULL_TRACER
        assert tracer.spans("phase")


class TestNeutrality:
    """Tracing must never change what gets scheduled."""

    @pytest.mark.parametrize(
        "machine,bench",
        [(ClusteredVLIW(4), "vvmul"), (raw_with_tiles(16), "jacobi")],
    )
    def test_traced_run_is_cycle_identical(self, machine, bench):
        region = build_benchmark(bench, machine).regions[0]
        plain = ConvergentScheduler().converge(region, machine)
        with tracing(Tracer()):
            traced = ConvergentScheduler().converge(region, machine)
        assert plain.schedule.makespan == traced.schedule.makespan
        assert plain.assignment == traced.assignment
        assert plain.priorities == traced.priorities

    def test_null_tracer_computes_no_metrics(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("matrix_delta ran without a tracer")

        monkeypatch.setattr(convergent_mod, "matrix_delta", refuse)
        machine = ClusteredVLIW(4)
        region = build_benchmark("vvmul", machine).regions[0]
        result = ConvergentScheduler().converge(region, machine)
        assert result.trace.records

    def test_traced_run_populates_pass_records(self):
        machine = ClusteredVLIW(4)
        region = build_benchmark("vvmul", machine).regions[0]
        tracer = Tracer()
        with tracing(tracer):
            result = ConvergentScheduler().converge(region, machine)
        records = result.trace.records
        spans = pass_spans(tracer.records)
        # per-pass diagnostics live on the pass span, one span per record
        assert len(spans) == len(records)
        assert any(s.duration_s > 0 for s in spans)
        assert any(s.fields["l1_churn"] > 0 for s in spans)
        assert any(s.fields["mean_confidence"] > 0 for s in spans)
        assert all("flip_fraction" not in s.fields for s in spans)
        # span vocabulary: converge + one span per executed pass + phases
        assert len(tracer.spans("converge")) == 1
        assert tracer.spans("list_schedule") and tracer.spans("extract_assignment")


class TestRecordedOnce:
    """Each compile fact has one home: guard interventions on the guard,
    per-pass diagnostics on the pass span."""

    @staticmethod
    def _facts(events):
        return [(e.pass_name, e.round_index, e.kind, e.detail) for e in events]

    def test_guard_events_listed_once_in_guard_trace_and_tracer(self):
        machine = ClusteredVLIW(4)
        region = build_benchmark("vvmul", machine).regions[0]
        passes = ["INITTIME", "NOISE", RaisingPass(), "LOAD", "EMPHCP"]
        tracer = Tracer()
        with tracing(tracer):
            result = ConvergentScheduler(
                passes=passes, iterations=3, quarantine_after=2
            ).converge(region, machine)
        facts = self._facts(result.guard.events)
        # fails twice (round 0 rollback, round 1 rollback + quarantine),
        # then is skipped in round 2
        assert [(f[1], f[2]) for f in facts] == [
            (0, "exception"), (1, "exception"), (1, "quarantine"),
        ]
        assert result.trace.guard_events is result.guard.events
        assert self._facts(result.trace.guard_events) == facts
        assert [
            (r.fields["pass_name"], r.fields["round"], r.fields["guard_kind"],
             r.fields["detail"])
            for r in tracer.events("guard")
        ] == facts
        rolled_back = [
            s.fields["round"] for s in pass_spans(tracer.records)
            if s.fields.get("rolled_back")
        ]
        assert rolled_back == [0, 1]

    def test_pass_spans_carry_what_pass_records_drop(self):
        machine = raw_with_tiles(16)
        region = build_benchmark("jacobi", machine).regions[0]
        plain = ConvergentScheduler().converge(region, machine)
        tracer = Tracer()
        with tracing(tracer):
            traced = ConvergentScheduler().converge(region, machine)
        assert [f.name for f in dataclasses.fields(PassRecord)] == [
            "pass_name", "changed_fraction", "spatial_only", "snapshot",
        ]
        spans = pass_spans(tracer.records)
        records = traced.trace.records
        assert [s.name for s in spans] == [f"pass:{r.pass_name}" for r in records]
        n = len(region.ddg)
        for span, record in zip(spans, records):
            assert span.fields["changed_fraction"] == record.changed_fraction
            assert span.fields["flips"] / n == record.changed_fraction
            assert "flip_fraction" not in span.fields
        assert any(span.fields["flips"] for span in spans)
        assert traced.trace.series() == plain.trace.series()
        assert [r.changed_fraction for r in records] == [
            r.changed_fraction for r in plain.trace.records
        ]


class TestMatrixDelta:
    """Metric correctness on a hand-built 3-instruction matrix."""

    def make_matrix(self):
        # 3 instructions, 2 clusters, 2 time slots, uniform = 0.125 each
        return PreferenceMatrix(3, 2, 2)

    def test_no_change_is_all_zero(self):
        m = self.make_matrix()
        trace = ConvergenceTrace()
        trace.observe_initial(m)
        delta = matrix_delta(m.checkpoint(), m)
        assert delta["l1_churn"] == 0.0
        assert trace.observe_pass("NOP", m).changed_fraction == 0.0
        assert trace.last_flips == 0
        assert delta["mean_entropy"] == pytest.approx(1.0)  # fully uniform

    def test_single_flip_counted_and_churn_exact(self):
        m = self.make_matrix()
        trace = ConvergenceTrace()
        trace.observe_initial(m)  # ties -> cluster 0
        before_w = m.checkpoint()
        # move instruction 1 entirely to cluster 1: weights become
        # 0 on cluster 0, 0.25 on each slot of cluster 1
        m.scale(1, 0.0, cluster=0)
        m.normalize()
        delta = matrix_delta(before_w, m)
        record = trace.observe_pass("MOVE", m)
        assert trace.last_flips == 1
        assert record.changed_fraction == pytest.approx(1 / 3)
        # row 1 L1: |0-0.125|*2 + |0.5-0.125|*2 = 1.0, averaged over 3
        assert delta["l1_churn"] == pytest.approx(1.0 / 3)

    def test_entropy_and_confidence_reflect_sharpness(self):
        m = self.make_matrix()
        for i in range(3):
            m.scale(i, 0.0, cluster=0)
        m.normalize()
        assert m.mean_entropy() == pytest.approx(0.0)  # fully decided
        assert m.mean_confidence() == pytest.approx(100.0)  # clamped inf
        half = self.make_matrix()
        assert half.mean_entropy() == pytest.approx(1.0)
        assert half.mean_confidence() == pytest.approx(1.0)

    def test_entropies_normalized_by_cluster_count(self):
        m = PreferenceMatrix(2, 4, 1)
        assert np.allclose(m.entropies(), 1.0)
        one = PreferenceMatrix(2, 1, 3)
        assert np.allclose(one.entropies(), 0.0)

    def test_empty_matrix(self):
        m = PreferenceMatrix(0, 2, 2)
        delta = matrix_delta(m.checkpoint(), m)
        assert delta == {
            "l1_churn": 0.0,
            "mean_entropy": 0.0,
            "mean_confidence": 0.0,
        }


class TestMetricsRegistry:
    def test_counters_and_histograms(self):
        reg = MetricsRegistry()
        reg.inc("regions.ok")
        reg.inc("regions.ok", 2)
        reg.observe("cycles", 10)
        reg.observe("cycles", 30)
        assert reg.counter("regions.ok") == 3
        assert reg.counter("missing") == 0
        h = reg.histogram("cycles")
        assert (h.count, h.mean, h.min, h.max) == (2, 20.0, 10.0, 30.0)

    def test_snapshot_round_trip(self):
        reg = MetricsRegistry()
        reg.inc("a", 5)
        reg.observe("b", 1.5)
        snap = reg.snapshot()
        json.dumps(snap)  # must be JSON-safe
        back = MetricsRegistry.from_snapshot(snap)
        assert back.counter("a") == 5
        assert back.histogram("b").total == 1.5

    def test_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n")
        a.observe("x", 1.0)
        b.inc("n", 4)
        b.observe("x", 3.0)
        a.merge(b)
        assert a.counter("n") == 5
        assert a.histogram("x").max == 3.0

    def test_empty_histogram_dict_is_finite(self):
        h = QuantileHistogram()
        d = h.to_dict()
        assert d["min"] == 0.0 and d["max"] == 0.0 and d["mean"] == 0.0
        assert QuantileHistogram.from_dict(d).count == 0


class TestHarnessIntegration:
    def test_run_program_attaches_metrics(self):
        from repro.harness import load_result, run_program, save_result

        machine = ClusteredVLIW(4)
        program = build_benchmark("vvmul", machine)
        reg = MetricsRegistry()
        result = run_program(
            program, machine, ConvergentScheduler(), check_values=False, registry=reg
        )
        assert result.metrics is not None
        assert result.metrics["counters"]["regions.ok"] == len(program.regions)
        assert result.metrics["histograms"]["region.cycles"]["count"] >= 1

    def test_metrics_survive_results_round_trip(self, tmp_path):
        from repro.harness import load_result, run_program, save_result

        machine = ClusteredVLIW(4)
        program = build_benchmark("vvmul", machine)
        result = run_program(
            program,
            machine,
            ConvergentScheduler(),
            check_values=False,
            registry=MetricsRegistry(),
        )
        save_result(result, tmp_path / "r.json")
        back = load_result(tmp_path / "r.json")
        assert back.metrics == result.metrics

    def test_format_metrics_renders_and_is_safe_on_none(self):
        from repro.harness import format_metrics

        assert format_metrics(None) == ""
        assert format_metrics({"counters": {}, "histograms": {}}) == ""
        reg = MetricsRegistry()
        reg.inc("regions.ok", 2)
        reg.observe("region.cycles", 34.0)
        text = format_metrics(reg.snapshot())
        assert "regions.ok = 2" in text
        assert "region.cycles" in text

    def test_ambient_tracing_captures_simulate(self):
        machine = ClusteredVLIW(4)
        program = build_benchmark("vvmul", machine)
        from repro.harness import run_program

        tracer = Tracer()
        with tracing(tracer):
            run_program(program, machine, ConvergentScheduler(), check_values=False)
        assert tracer.spans("simulate")
        assert tracer.spans("converge")


class TestRendering:
    def test_sparkline_scales(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0]) == "██"
        line = sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
        assert line[0] == "▁" and line[-1] == "█"

    def test_render_trace_and_profile_on_real_run(self):
        machine = ClusteredVLIW(4)
        region = build_benchmark("vvmul", machine).regions[0]
        tracer = Tracer()
        with tracing(tracer):
            ConvergentScheduler().converge(region, machine)
        trace_text = render_trace(tracer.records)
        assert "confidence" in trace_text and "PATHPROP" in trace_text
        assert "confidence/pass" in trace_text
        profile_text = render_profile(tracer.records)
        assert "converge" in profile_text and "share" in profile_text
        assert "total (top-level)" in profile_text

    def test_render_trace_shows_guard_events(self):
        tracer = Tracer()
        tracer.event(
            "guard", pass_name="NOISE", round=0, guard_kind="health", detail="NaN"
        )
        text = render_trace(tracer.records)
        assert "! guard: NOISE" in text


class TestCliVerbs:
    def test_trace_verb(self, capsys, tmp_path):
        from repro.cli import main

        out_path = tmp_path / "t.jsonl"
        assert main(["trace", "vvmul", "--machine", "vliw4",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "convergence trace" in out and "final schedule" in out
        records = read_jsonl(out_path)
        assert pass_spans(records)

    def test_trace_verb_bad_region(self, capsys):
        from repro.cli import main

        assert main(["trace", "vvmul", "--region", "9"]) == 2

    def test_profile_verb(self, capsys):
        from repro.cli import main

        assert main(["profile", "vvmul", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "compile-time profile" in out
        assert "list_schedule" in out
        assert "regions.ok" in out

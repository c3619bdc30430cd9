"""Tests for the observability layer.

Covers the three acceptance properties: JSONL round-trips (tracer
records and :class:`ConvergenceTrace`), null-tracer behavior-neutrality
(cycle-identical schedules with tracing off vs. on), and metric
correctness on a hand-built three-instruction region.
"""

import json

import numpy as np
import pytest

from repro.core import ConvergentScheduler, PreferenceMatrix
from repro.core.guard import GuardEvent
from repro.core.metrics import ConvergenceTrace
from repro.machine import ClusteredVLIW, raw_with_tiles
from repro.observability import (
    NULL_TRACER,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Tracer,
    active,
    install,
    instrumented,
    matrix_delta,
    pass_spans,
    read_jsonl,
    render_profile,
    render_trace,
    sparkline,
    timed,
    trace_to_registry,
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

    def test_instrumented_decorator(self):
        @instrumented("add_op", flavor="test")
        def add(a, b):
            return a + b

        tracer = Tracer()
        with tracing(tracer):
            assert add(2, 3) == 5
        (span,) = tracer.spans("add_op")
        assert span.fields["flavor"] == "test"
        # with no ambient tracer it's a plain call
        assert add(1, 1) == 2
        assert len(tracer.records) == 1


class TestNeutrality:
    """Tracing must never change what gets scheduled."""

    @pytest.mark.parametrize(
        "machine,bench",
        [(ClusteredVLIW(4), "vvmul"), (raw_with_tiles(16), "jacobi")],
    )
    def test_traced_run_is_cycle_identical(self, machine, bench):
        region = build_benchmark(bench, machine).regions[0]
        plain = ConvergentScheduler().converge(region, machine)
        traced = ConvergentScheduler(tracer=Tracer()).converge(region, machine)
        assert plain.schedule.makespan == traced.schedule.makespan
        assert plain.assignment == traced.assignment
        assert plain.priorities == traced.priorities

    def test_null_tracer_computes_no_metrics(self):
        machine = ClusteredVLIW(4)
        region = build_benchmark("vvmul", machine).regions[0]
        result = ConvergentScheduler().converge(region, machine)
        # without a tracer the rich PassRecord fields stay at defaults
        assert all(r.wall_seconds == 0.0 for r in result.trace.records)
        assert all(r.l1_churn == 0.0 for r in result.trace.records)

    def test_traced_run_populates_pass_records(self):
        machine = ClusteredVLIW(4)
        region = build_benchmark("vvmul", machine).regions[0]
        tracer = Tracer()
        result = ConvergentScheduler(tracer=tracer).converge(region, machine)
        records = result.trace.records
        assert any(r.wall_seconds > 0 for r in records)
        assert any(r.l1_churn > 0 for r in records)
        assert any(r.mean_confidence > 0 for r in records)
        # span vocabulary: converge + one span per executed pass + phases
        assert len(tracer.spans("converge")) == 1
        assert len(pass_spans(tracer.records)) == len(records)
        assert tracer.spans("list_schedule") and tracer.spans("extract_assignment")


class TestMatrixDelta:
    """Metric correctness on a hand-built 3-instruction matrix."""

    def make_matrix(self):
        # 3 instructions, 2 clusters, 2 time slots, uniform = 0.125 each
        return PreferenceMatrix(3, 2, 2)

    def test_no_change_is_all_zero(self):
        m = self.make_matrix()
        delta = matrix_delta(m.checkpoint(), m.preferred_clusters(), m)
        assert delta["l1_churn"] == 0.0
        assert delta["flips"] == 0
        assert delta["flip_fraction"] == 0.0
        assert delta["mean_entropy"] == pytest.approx(1.0)  # fully uniform

    def test_single_flip_counted_and_churn_exact(self):
        m = self.make_matrix()
        before_w = m.checkpoint()
        before_p = m.preferred_clusters()  # ties -> cluster 0
        # move instruction 1 entirely to cluster 1: weights become
        # 0 on cluster 0, 0.25 on each slot of cluster 1
        m.scale(1, 0.0, cluster=0)
        m.normalize()
        delta = matrix_delta(before_w, before_p, m)
        assert delta["flips"] == 1
        assert delta["flip_fraction"] == pytest.approx(1 / 3)
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
        delta = matrix_delta(m.checkpoint(), [], m)
        assert delta == {
            "l1_churn": 0.0,
            "flips": 0,
            "flip_fraction": 0.0,
            "mean_entropy": 0.0,
            "mean_confidence": 0.0,
        }


class TestConvergenceTraceJsonl:
    def test_round_trip_preserves_records_and_guard_events(self):
        m = PreferenceMatrix(4, 3, 5)
        trace = ConvergenceTrace()
        trace.observe_initial(m)
        m.scale(0, 10.0, cluster=2)
        m.normalize()
        record = trace.observe_pass("PATH", m)
        record.wall_seconds = 0.25
        record.l1_churn = 1.5
        record.flips = 1
        record.mean_entropy = 0.7
        record.mean_confidence = 3.0
        trace.observe_guard_event(
            GuardEvent("NOISE", 0, "health", "NaN weight in instruction 2's row")
        )
        back = ConvergenceTrace.from_jsonl(trace.to_jsonl())
        assert len(back.records) == 1
        r = back.records[0]
        assert (r.pass_name, r.flips, r.wall_seconds) == ("PATH", 1, 0.25)
        assert r.changed_fraction == pytest.approx(record.changed_fraction)
        assert r.l1_churn == 1.5 and r.mean_confidence == 3.0
        (event,) = back.guard_events
        assert event.pass_name == "NOISE" and event.kind == "health"
        assert back.degraded

    def test_real_run_round_trips(self):
        machine = ClusteredVLIW(4)
        region = build_benchmark("vvmul", machine).regions[0]
        result = ConvergentScheduler(tracer=Tracer()).converge(region, machine)
        back = ConvergenceTrace.from_jsonl(result.trace.to_jsonl())
        assert [r.to_dict() for r in back.records] == [
            r.to_dict() for r in result.trace.records
        ]


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
        h = Histogram()
        d = h.to_dict()
        assert d["min"] == 0.0 and d["max"] == 0.0 and d["mean"] == 0.0
        assert Histogram.from_dict(d).count == 0

    def test_trace_to_registry(self):
        tracer = Tracer()
        with tracer.span("simulate"):
            pass
        tracer.event("guard")
        reg = trace_to_registry(tracer.records)
        assert reg.counter("span.simulate") == 1
        assert reg.counter("event.guard") == 1
        assert reg.histogram("span.simulate.seconds").count == 1


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
        ConvergentScheduler(tracer=tracer).converge(region, machine)
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

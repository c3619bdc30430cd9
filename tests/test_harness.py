"""Unit tests for the experiment harness (runner, reports, studies)."""


import pytest

from repro.core import ConvergentScheduler
from repro.harness import (
    arithmetic_mean,
    compile_time_scaling,
    convergence_study,
    format_bar_chart,
    format_table,
    geometric_mean,
    raw_speedups,
    run_program,
    run_region,
    vliw_speedups,
)
from repro.harness.speedup import SpeedupTable
from repro.schedulers import UnifiedAssignAndSchedule
from repro.workloads import build_benchmark


class TestRunners:
    def test_run_region_reports_verified_cycles(self, vliw4, mxm_vliw):
        result = run_region(mxm_vliw, vliw4, UnifiedAssignAndSchedule())
        assert result.cycles > 0
        assert result.compile_seconds > 0
        assert 0 < result.utilization <= 1

    def test_run_program_weights_by_trip_count(self, vliw4):
        program = build_benchmark("vvmul", vliw4)
        program.regions[0].trip_count = 10
        result = run_program(program, vliw4, UnifiedAssignAndSchedule())
        single = run_region(program.regions[0], vliw4, UnifiedAssignAndSchedule())
        assert result.cycles == single.cycles * 10

    def test_result_metadata(self, vliw4):
        program = build_benchmark("vvmul", vliw4)
        result = run_program(program, vliw4, ConvergentScheduler())
        assert result.benchmark == "vvmul"
        assert result.machine_name == "vliw4"
        assert result.scheduler_name == "convergent"


class TestReporting:
    def test_format_table_aligns(self):
        text = format_table(["name", "x"], [["a", 1.5], ["bb", 2.25]], title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "1.50" in text and "2.25" in text

    def test_format_bar_chart(self):
        text = format_bar_chart({"g": {"a": 2.0, "b": 1.0}}, title="chart")
        assert "chart" in text
        a_bar = next(
            line for line in text.splitlines()
            if " a" in line or line.strip().startswith("a")
        )
        b_bar = next(line for line in text.splitlines() if line.strip().startswith("b"))
        assert a_bar.count("#") > b_bar.count("#")

    def test_means(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0
        assert geometric_mean([1.0, 4.0]) == 2.0
        assert arithmetic_mean([]) == 0.0
        assert geometric_mean([]) == 0.0


class TestSpeedupTable:
    def make_table(self):
        table = SpeedupTable(sizes=(4,))
        table.speedups = {
            "a": {"x": {4: 2.0}, "y": {4: 1.0}},
            "b": {"x": {4: 3.0}, "y": {4: 2.0}},
        }
        return table

    def test_mean_speedup(self):
        table = self.make_table()
        assert table.mean_speedup("x", 4) == 2.5

    def test_improvement_is_mean_ratio(self):
        table = self.make_table()
        assert table.improvement("x", "y", 4) == pytest.approx((2.0 + 1.5) / 2 - 1)

    def test_render_lists_benchmarks(self):
        text = self.make_table().render("title")
        assert "title" in text and "a" in text and "x/4" in text


class TestStudies:
    def test_small_vliw_speedups(self):
        table = vliw_speedups(benchmarks=("vvmul",), check_values=False)
        value = table.speedups["vvmul"]["convergent"][4]
        assert value > 1.0  # four clusters beat one on a fat kernel
        assert table.baseline_cycles["vvmul"] > 0

    def test_small_raw_speedups(self):
        table = raw_speedups(
            benchmarks=("jacobi",), sizes=(4,), check_values=False
        )
        for scheduler in ("rawcc", "convergent"):
            assert table.speedups["jacobi"][scheduler][4] > 1.0

    def test_convergence_study_series_decay(self, vliw4):
        study = convergence_study(vliw4, ("mxm",))
        series = study.series["mxm"]
        assert series, "expected at least one spatial pass"
        # Churn at the end must be far below the peak: convergence.
        assert series[-1] <= max(series) / 2 or max(series) == 0
        assert "mxm" in study.render()

    def test_compile_time_scaling_shape(self):
        result = compile_time_scaling(sizes=(40, 160))
        for scheduler in ("pcc", "uas", "convergent"):
            assert result.seconds[scheduler][160] > 0
        assert result.growth_factor("pcc") > 1.0
        assert "instrs" in result.render()

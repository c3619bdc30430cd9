"""Benchmark-snapshot subsystem tests.

Covers the acceptance properties of the bench layer: the snapshot
schema round-trips and validates, quality fields are deterministic
across runs, the compare engine classifies improved/regressed/neutral
cells (including threshold edges and one-sided cells), trace diffs
align hand-built traces, and the CLI verbs behave (including the
nonzero exit on an artificially degraded snapshot).
"""

import json

import pytest

from repro.cli import main
from repro.harness.measure import Measurement, measure_program, median
from repro.machine import ClusteredVLIW
from repro.observability.bench import (
    BenchCell,
    BenchSnapshot,
    SCHEMA_VERSION,
    environment_fingerprint,
    latest_snapshot_path,
    next_snapshot_path,
    run_bench,
    snapshot_paths,
    validate_snapshot,
)
from repro.observability.diff import (
    ADDED,
    IMPROVED,
    NEUTRAL,
    REGRESSED,
    REMOVED,
    align_traces,
    compare_snapshots,
    render_trace_diff,
)
from repro.observability.render import render_profile
from repro.observability.tracer import KIND_SPAN, TraceRecord, Tracer, tracing
from repro.schedulers import UnifiedAssignAndSchedule
from repro.workloads import build_benchmark
from repro.workloads.suite import baseline_machine


def small_bench(**overrides):
    """A fast two-scheduler bench run on the 2-cluster VLIW."""
    kwargs = dict(
        machines=[ClusteredVLIW(2)],
        benchmarks=["vvmul"],
        schedulers=["convergent", "uas"],
        repeats=1,
    )
    kwargs.update(overrides)
    return run_bench(**kwargs)


@pytest.fixture(scope="module")
def snapshot():
    return small_bench()


def make_cell(benchmark="vvmul", machine="vliw2", scheduler="convergent",
              cycles=50, transfers=30, speedup=1.5, status="ok",
              compile_seconds=0.05):
    """Hand-built cell for compare-engine tests."""
    return BenchCell(
        benchmark=benchmark,
        machine=machine,
        scheduler=scheduler,
        quality={
            "cycles": cycles,
            "transfers": transfers,
            "speedup": speedup,
            "utilization": 0.3,
            "comm_busy": transfers,
            "status": status,
        },
        cost={
            "compile_seconds": compile_seconds,
            "runs": [compile_seconds],
            "timing_noisy": False,
            "phase_seconds": {},
        },
    )


def make_snapshot(cells, snapshot_id=0):
    """Hand-built snapshot wrapping ``cells``."""
    return BenchSnapshot(
        snapshot_id=snapshot_id,
        environment=environment_fingerprint(),
        config={"tier": "test", "repeats": 1, "seed": 0},
        cells=cells,
    )


class TestSnapshotSchema:
    def test_round_trip_is_lossless(self, snapshot):
        data = snapshot.to_dict()
        back = BenchSnapshot.from_dict(data)
        assert back.to_dict() == data

    def test_save_load(self, snapshot, tmp_path):
        path = tmp_path / "BENCH_9.json"
        snapshot.save(path)
        assert BenchSnapshot.load(path).to_dict() == snapshot.to_dict()

    def test_fresh_snapshot_is_schema_valid(self, snapshot):
        assert validate_snapshot(snapshot.to_dict()) == []

    def test_covers_requested_matrix(self, snapshot):
        keys = set(snapshot.cell_map())
        # single is always added as the speedup baseline.
        assert keys == {
            ("vvmul", "vliw2", "convergent"),
            ("vvmul", "vliw2", "uas"),
            ("vvmul", "vliw2", "single"),
        }
        for cell in snapshot.cells:
            assert cell.quality["status"] == "ok"
            assert cell.quality["cycles"] > 0

    def test_speedup_is_relative_to_single(self, snapshot):
        cells = snapshot.cell_map()
        base = cells[("vvmul", "vliw2", "single")].quality["cycles"]
        conv = cells[("vvmul", "vliw2", "convergent")].quality
        assert cells[("vvmul", "vliw2", "single")].quality["speedup"] == 1.0
        assert conv["speedup"] == pytest.approx(base / conv["cycles"], abs=1e-4)

    def test_environment_fingerprint_fields(self, snapshot):
        for key in ("python", "platform", "numpy", "git_sha"):
            assert key in snapshot.environment

    def test_validator_rejects_bad_payloads(self, snapshot):
        assert validate_snapshot([]) == ["snapshot is not a JSON object"]
        data = snapshot.to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        assert any("schema_version" in p for p in validate_snapshot(data))
        data = snapshot.to_dict()
        data["kind"] = "nonsense"
        assert any("kind" in p for p in validate_snapshot(data))
        data = snapshot.to_dict()
        del data["cells"][0]["quality"]["cycles"]
        assert any("cycles" in p for p in validate_snapshot(data))
        data = snapshot.to_dict()
        data["cells"].append(dict(data["cells"][0]))
        assert any("duplicate" in p for p in validate_snapshot(data))
        data = snapshot.to_dict()
        data["cells"] = []
        assert any("cells" in p for p in validate_snapshot(data))

    def test_validator_rejects_wrong_quality_type(self, snapshot):
        data = snapshot.to_dict()
        data["cells"][0]["quality"]["cycles"] = "fast"
        assert any("wrong type" in p for p in validate_snapshot(data))


class TestDeterminism:
    def test_quality_fields_identical_across_runs(self, snapshot):
        again = small_bench()
        a = {c.key: c.quality for c in snapshot.cells}
        b = {c.key: c.quality for c in again.cells}
        assert a == b

    def test_quality_json_is_byte_identical(self, snapshot):
        again = small_bench()
        def dump(snap):
            return json.dumps(
                [{**c.to_dict(), "cost": None} for c in snap.cells], sort_keys=True
            )

        assert dump(snapshot) == dump(again)


class TestSnapshotDiscovery:
    def test_numbering(self, tmp_path):
        assert snapshot_paths(tmp_path) == []
        assert latest_snapshot_path(tmp_path) is None
        assert next_snapshot_path(tmp_path).name == "BENCH_1.json"
        (tmp_path / "BENCH_1.json").write_text("{}")
        (tmp_path / "BENCH_3.json").write_text("{}")
        (tmp_path / "BENCH_notanumber.json").write_text("{}")
        assert [p.name for p in snapshot_paths(tmp_path)] == [
            "BENCH_1.json", "BENCH_3.json"
        ]
        assert latest_snapshot_path(tmp_path).name == "BENCH_3.json"
        assert next_snapshot_path(tmp_path).name == "BENCH_4.json"

    def test_baseline_machine_family(self):
        from repro.machine import raw_with_tiles

        assert baseline_machine(raw_with_tiles(16)).n_clusters == 1
        assert baseline_machine(ClusteredVLIW(4)).n_clusters == 1


class TestCompareEngine:
    def test_identical_snapshots_are_neutral_and_ok(self):
        a = make_snapshot([make_cell()])
        b = make_snapshot([make_cell()])
        comparison = compare_snapshots(a, b)
        assert [d.verdict for d in comparison.deltas] == [NEUTRAL]
        assert comparison.ok

    def test_cycle_increase_regresses_and_gates(self):
        a = make_snapshot([make_cell(cycles=50)], snapshot_id=1)
        b = make_snapshot([make_cell(cycles=51)], snapshot_id=2)
        comparison = compare_snapshots(a, b)
        assert [d.verdict for d in comparison.deltas] == [REGRESSED]
        assert not comparison.ok
        assert "QUALITY REGRESSION" in comparison.render()
        assert "BENCH_1" in comparison.render() and "BENCH_2" in comparison.render()

    def test_cycle_decrease_improves(self):
        a = make_snapshot([make_cell(cycles=50)])
        b = make_snapshot([make_cell(cycles=49)])
        comparison = compare_snapshots(a, b)
        assert [d.verdict for d in comparison.deltas] == [IMPROVED]
        assert comparison.ok

    def test_quality_is_exact_match_gated(self):
        # Even a one-transfer change with equal cycles is not neutral.
        a = make_snapshot([make_cell(transfers=30)])
        b = make_snapshot([make_cell(transfers=31)])
        comparison = compare_snapshots(a, b)
        assert [d.verdict for d in comparison.deltas] == [REGRESSED]

    def test_status_degradation_regresses(self):
        # A failing schedule regresses even when its cycle count drops.
        a = make_snapshot([make_cell(cycles=50, status="ok")])
        b = make_snapshot([make_cell(cycles=0, status="failed")])
        comparison = compare_snapshots(a, b)
        assert [d.verdict for d in comparison.deltas] == [REGRESSED]

    def test_timing_threshold_edges(self):
        a = make_snapshot([make_cell(compile_seconds=0.100)])
        exactly = make_snapshot([make_cell(compile_seconds=0.120)])
        above = make_snapshot([make_cell(compile_seconds=0.1201)])
        at_edge = compare_snapshots(a, exactly, timing_tolerance=0.2).deltas[0]
        past_edge = compare_snapshots(a, above, timing_tolerance=0.2).deltas[0]
        assert not at_edge.timing_flagged  # exactly at tolerance: neutral
        assert past_edge.timing_flagged
        # Timing never affects the quality verdict or the gate.
        assert past_edge.verdict == NEUTRAL
        assert compare_snapshots(a, above).ok

    def test_added_and_removed_cells_do_not_gate(self):
        a = make_snapshot([make_cell(benchmark="vvmul")])
        b = make_snapshot([make_cell(benchmark="fir")])
        comparison = compare_snapshots(a, b)
        verdicts = sorted(d.verdict for d in comparison.deltas)
        assert verdicts == sorted([ADDED, REMOVED])
        assert comparison.ok

    def test_markdown_report_lists_every_cell(self):
        a = make_snapshot([make_cell(), make_cell(scheduler="uas")])
        b = make_snapshot([make_cell(cycles=60), make_cell(scheduler="uas")])
        text = compare_snapshots(a, b).to_markdown()
        assert text.count("| vvmul |") == 2
        assert "regressed" in text and "QUALITY REGRESSION" in text


def pass_span(name, start, duration, **fields):
    """A hand-built ``pass:<NAME>`` span record."""
    return TraceRecord(
        kind=KIND_SPAN, name=f"pass:{name}", start_s=start,
        duration_s=duration, depth=1, fields=fields,
    )


class TestTraceDiff:
    def make_trace(self, specs):
        return [
            pass_span(name, i * 1.0, 0.001, l1_churn=churn,
                      mean_entropy=0.5, mean_confidence=2.0)
            for i, (name, churn) in enumerate(specs)
        ]

    def test_identical_traces_fully_align(self):
        a = self.make_trace([("NOISE", 0.1), ("PATH", 0.2), ("COMM", 0.3)])
        pairs = align_traces(a, a)
        assert len(pairs) == 3
        assert all(x is not None and y is not None for x, y in pairs)
        text = render_trace_diff(a, a)
        assert "traces agree" in text

    def test_missing_pass_becomes_one_sided_row(self):
        a = self.make_trace([("NOISE", 0.1), ("PATH", 0.2), ("COMM", 0.3)])
        b = self.make_trace([("NOISE", 0.1), ("COMM", 0.3)])
        pairs = align_traces(a, b)
        assert len(pairs) == 3
        one_sided = [(x, y) for x, y in pairs if y is None]
        assert len(one_sided) == 1
        assert one_sided[0][0].name == "pass:PATH"
        text = render_trace_diff(a, b, label_a="old", label_b="new")
        assert "1/3" in text.splitlines()[-1] or "diverge" in text

    def test_changed_churn_reported_as_divergence(self):
        a = self.make_trace([("NOISE", 0.1), ("COMM", 0.3)])
        b = self.make_trace([("NOISE", 0.1), ("COMM", 0.9)])
        text = render_trace_diff(a, b)
        assert "+0.6000" in text
        assert "1/2 pass rows diverge" in text

    def test_align_on_real_convergence_traces(self):
        from repro.core import ConvergentScheduler

        machine = ClusteredVLIW(2)
        region = build_benchmark("vvmul", machine).regions[0]
        tracer_a, tracer_b = Tracer(), Tracer()
        with tracing(tracer_a):
            ConvergentScheduler(seed=0).converge(region, machine)
        with tracing(tracer_b):
            ConvergentScheduler(seed=1).converge(region, machine)
        pairs = align_traces(tracer_a.records, tracer_b.records)
        assert pairs and all(a is not None and b is not None for a, b in pairs)
        render_trace_diff(tracer_a.records, tracer_b.records)


class TestMeasure:
    def test_median(self):
        assert median([]) == 0.0
        assert median([3.0]) == 3.0
        assert median([1.0, 9.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 10.0]) == 2.5

    def test_noisy_timer_guard(self):
        quiet = Measurement(result=None, compile_seconds_runs=[0.10, 0.11, 0.105])
        noisy = Measurement(result=None, compile_seconds_runs=[0.10, 0.30, 0.11])
        single = Measurement(result=None, compile_seconds_runs=[0.10])
        assert not quiet.timing_noisy
        assert noisy.timing_noisy
        assert not single.timing_noisy  # one run: spread undefined

    def test_measure_program_collects_phases_and_repeats(self):
        machine = ClusteredVLIW(2)
        program = build_benchmark("vvmul", machine)
        measurement = measure_program(
            program, machine, UnifiedAssignAndSchedule(), repeats=2
        )
        assert len(measurement.compile_seconds_runs) == 2
        assert measurement.compile_seconds > 0
        assert measurement.phase_seconds["simulate"] > 0
        # UAS emits no convergence passes: pass metrics stay None.
        assert measurement.churn_total is None
        assert measurement.result.metrics is not None

    def test_measure_program_convergent_pass_metrics(self):
        from repro.core import ConvergentScheduler

        machine = ClusteredVLIW(2)
        program = build_benchmark("vvmul", machine)
        measurement = measure_program(
            program, machine, ConvergentScheduler(seed=0), repeats=1
        )
        assert measurement.phase_seconds["converge"] > 0
        assert measurement.phase_seconds["passes"] > 0
        assert measurement.churn_total > 0
        assert measurement.final_confidence > 0

    def test_measure_program_rejects_zero_repeats(self):
        machine = ClusteredVLIW(2)
        program = build_benchmark("vvmul", machine)
        with pytest.raises(ValueError):
            measure_program(program, machine, UnifiedAssignAndSchedule(), repeats=0)


class TestProfileResidual:
    def test_other_row_makes_shares_sum_to_100(self):
        tracer = Tracer()
        with tracer.span("converge"):
            pass
        tracer.records[0].duration_s = 0.6
        text = render_profile(tracer.records, wall_seconds=1.0)
        assert "other" in text
        assert "60.0%" in text and "40.0%" in text
        assert "total (top-level)" in text
        assert "total (wall)" in text

    def test_no_residual_row_without_wall(self):
        tracer = Tracer()
        with tracer.span("converge"):
            pass
        tracer.records[0].duration_s = 0.6
        text = render_profile(tracer.records)
        assert "other" not in text
        assert "100.0%" in text

    def test_nested_shares_are_parenthesized(self):
        tracer = Tracer()
        with tracer.span("converge"):
            with tracer.span("pass:NOISE"):
                pass
        text = render_profile(tracer.records)
        assert "(" in text.split("pass:NOISE")[1].splitlines()[0]


class TestBenchCLI:
    def test_bench_writes_valid_snapshot(self, tmp_path, capsys):
        out = tmp_path / "BENCH_5.json"
        code = main([
            "bench", "--machines", "vliw2", "--benchmarks", "vvmul",
            "--schedulers", "convergent,uas", "--repeats", "1",
            "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert validate_snapshot(data) == []
        assert data["snapshot_id"] == 5  # from the filename
        assert "bench snapshot" in capsys.readouterr().out

    def test_bench_compare_neutral_and_regressed(self, tmp_path, capsys):
        snap = make_snapshot([make_cell()], snapshot_id=1)
        degraded = make_snapshot([make_cell(cycles=77)], snapshot_id=2)
        path_a, path_b = tmp_path / "BENCH_1.json", tmp_path / "BENCH_2.json"
        snap.save(path_a)
        degraded.save(path_b)
        assert main(["bench", "--compare", str(path_a), str(path_a)]) == 0
        capsys.readouterr()
        report = tmp_path / "report.md"
        code = main([
            "bench", "--compare", str(path_a), str(path_b),
            "--report", str(report),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "regressed" in out
        assert "50 -> 77" in out
        assert report.exists() and "QUALITY REGRESSION" in report.read_text()

    def test_bench_against_latest(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = [
            "bench", "--machines", "vliw2", "--benchmarks", "vvmul",
            "--schedulers", "convergent", "--repeats", "1",
        ]
        # No baseline yet: --against-latest is an error.
        assert main(args + ["--against-latest"]) == 2
        assert main(args) == 0  # writes BENCH_1.json
        assert (tmp_path / "BENCH_1.json").exists()
        capsys.readouterr()
        # Deterministic pipeline: the rerun matches its own baseline.
        assert main(args + ["--against-latest"]) == 0
        assert "neutral" in capsys.readouterr().out

    def test_trace_diff_cli(self, tmp_path, capsys):
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for seed, path in ((0, path_a), (1, path_b)):
            assert main([
                "trace", "vvmul", "--machine", "vliw2",
                "--seed", str(seed), "--out", str(path),
            ]) == 0
        capsys.readouterr()
        assert main(["trace", "--diff", str(path_a), str(path_b)]) == 0
        out = capsys.readouterr().out
        assert "trace diff" in out and "Δchurn" in out

    def test_trace_diff_missing_file_errors(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["trace", "--diff", str(missing), str(missing)]) == 2
        assert "no such trace" in capsys.readouterr().err

    def test_trace_without_benchmark_or_diff_errors(self, capsys):
        assert main(["trace"]) == 2
        assert "required" in capsys.readouterr().err

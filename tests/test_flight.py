"""Flight-recorder suite: quantile histograms, ledgers, timelines, trends.

Four families:

* **quantile histograms** — property tests (hypothesis) for the
  log-bucketed :class:`~repro.observability.metrics.QuantileHistogram`:
  merge is exact and associative at the bucket level, quantile
  estimates respect the documented relative-error bound, and the empty
  histogram is symmetric under serialization (live == round-tripped ==
  merged-empty, the ``to_dict`` asymmetry fix);
* **ledger crash-safety** — flush is atomic, and a truncated or
  corrupt trailing JSONL line is skipped with a counted warning,
  mirroring the schedule cache's quarantine-not-crash policy;
* **engine integration** — every task the engine runs (inline or
  pooled) emits exactly one record, and a ledger-on run is
  result-identical to a ledger-off run;
* **timeline / trend / CLI** — saturation analysis on synthetic
  ledgers, Chrome trace-event shape, cross-snapshot trend flags, and
  the ``repro timeline`` / ``repro trend`` verbs end to end.
"""

from __future__ import annotations

import copy
import json
import math
import os
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.engine import CompilationEngine
from repro.harness import run_program
from repro.harness.results import program_result_to_dict
from repro.machine import ClusteredVLIW
from repro.observability import (
    FlightLedger,
    FlightRecord,
    MetricsRegistry,
    QuantileHistogram,
    analyze_ledger,
    read_ledger,
    render_timeline,
    render_trend,
    to_chrome_trace,
)
from repro.observability.metrics import (
    QUANTILE_BUCKETS_PER_DECADE,
    TELEMETRY_NAMES,
)
from repro.observability.trend import CellTrend, load_trends
from repro.workloads import build_benchmark

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Documented relative-error bound of the bucket layout: half a bucket
#: in log space, ``10**(1/(2*16)) - 1`` ≈ 7.5%.
ERROR_BOUND = 10 ** (1 / (2 * QUANTILE_BUCKETS_PER_DECADE)) - 1

#: Positive samples comfortably inside the regular bucket range.
_samples = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)


def scrubbed(result):
    """Result dict with wall-clock fields neutralized (see test_engine)."""
    data = copy.deepcopy(program_result_to_dict(result))
    data["compile_seconds"] = 0.0
    data["metrics"] = None
    for region in data["regions"]:
        region["compile_seconds"] = 0.0
    return data


class TestQuantileHistogram:
    @settings(max_examples=60, deadline=None)
    @given(xs=_samples, ys=_samples)
    def test_merge_is_exact(self, xs, ys):
        together = QuantileHistogram()
        for v in xs + ys:
            together.observe(v)
        left, right = QuantileHistogram(), QuantileHistogram()
        for v in xs:
            left.observe(v)
        for v in ys:
            right.observe(v)
        left.merge(right)
        assert left.buckets == together.buckets
        assert left.count == together.count
        assert left.min == together.min and left.max == together.max
        assert left.total == pytest.approx(together.total)
        for q in (0.5, 0.9, 0.99):
            assert left.quantile(q) == together.quantile(q)

    @settings(max_examples=60, deadline=None)
    @given(xs=_samples, ys=_samples, zs=_samples)
    def test_merge_is_associative(self, xs, ys, zs):
        def histo(values):
            h = QuantileHistogram()
            for v in values:
                h.observe(v)
            return h

        left = histo(xs)
        left.merge(histo(ys))
        left.merge(histo(zs))
        inner = histo(ys)
        inner.merge(histo(zs))
        right = histo(xs)
        right.merge(inner)
        assert left.buckets == right.buckets
        assert (left.count, left.min, left.max) == (right.count, right.min, right.max)
        assert left.total == pytest.approx(right.total)

    @settings(max_examples=60, deadline=None)
    @given(xs=_samples, q=st.sampled_from([0.5, 0.9, 0.99]))
    def test_quantile_error_bound(self, xs, q):
        h = QuantileHistogram()
        for v in xs:
            h.observe(v)
        rank = max(0, min(len(xs) - 1, math.ceil(q * len(xs)) - 1))
        true = sorted(xs)[rank]
        estimate = h.quantile(q)
        assert h.min <= estimate <= h.max
        assert abs(estimate - true) <= (ERROR_BOUND + 1e-9) * true

    @settings(max_examples=60, deadline=None)
    @given(xs=_samples)
    def test_round_trip(self, xs):
        h = QuantileHistogram()
        for v in xs:
            h.observe(v)
        back = QuantileHistogram.from_dict(h.to_dict())
        assert back == h

    def test_dict_carries_quantiles(self):
        h = QuantileHistogram()
        for v in (0.001, 0.002, 0.004, 0.1, 0.5):
            h.observe(v)
        data = h.to_dict()
        for key in ("p50", "p90", "p99", "buckets", "quantile_schema"):
            assert key in data
        assert data["p50"] == h.p50

    def test_merge_plain_histogram_counts_unbucketed(self):
        # A summary-only dict (the pre-bucket layout) loads with no
        # buckets; merged in, its observations count but stay out of
        # the quantiles.
        plain = QuantileHistogram.from_dict(
            {"count": 2, "total": 8.0, "min": 3.0, "max": 5.0, "mean": 4.0}
        )
        assert plain.p50 == plain.p99 == 4.0  # quantiles read the mean
        q = QuantileHistogram()
        q.observe(1.0)
        q.merge(plain)
        assert (q.count, q.total, q.min, q.max) == (3, 9.0, 1.0, 5.0)
        assert sum(q.buckets.values()) == 1
        assert q.p50 == q.p99 < 3.0  # the summary-only 3.0 and 5.0 are not ranked
        assert "unbucketed" not in q.to_dict()

    def test_summary_only_snapshot_loads_and_merges(self):
        summary = {"count": 2, "total": 8.0, "min": 3.0, "max": 5.0, "mean": 4.0}
        legacy = MetricsRegistry.from_snapshot(
            {"counters": {"n": 1}, "histograms": {"x": summary}}
        )
        assert isinstance(legacy.histogram("x"), QuantileHistogram)
        assert legacy.histogram("x").p50 == 4.0
        live = MetricsRegistry()
        live.observe("x", 1.0)
        live.merge(legacy)
        merged = live.histogram("x")
        assert (merged.count, merged.min, merged.max) == (3, 1.0, 5.0)
        fresh = MetricsRegistry()
        fresh.merge(legacy)
        assert fresh.histogram("x") == legacy.histogram("x")
        assert fresh.histogram("x") is not legacy.histogram("x")


class TestEmptyHistogramSymmetry:
    """Satellite: the empty-case ``to_dict`` asymmetry fix."""

    def test_live_empty_equals_round_tripped_empty(self):
        live = QuantileHistogram()
        back = QuantileHistogram.from_dict(live.to_dict())
        assert back == live
        assert back.to_dict() == live.to_dict()

    def test_live_empty_equals_merged_empty(self):
        merged = QuantileHistogram()
        merged.merge(QuantileHistogram())
        assert merged == QuantileHistogram()

    def test_quantile_empty_round_trips(self):
        live = QuantileHistogram()
        back = QuantileHistogram.from_dict(live.to_dict())
        assert back == live

    @settings(max_examples=60, deadline=None)
    @given(
        xs=st.lists(
            st.floats(
                min_value=-1e9, max_value=1e9,
                allow_nan=False, allow_infinity=False,
            ),
            max_size=20,
        )
    )
    def test_round_trip_any_sample_including_empty(self, xs):
        h = QuantileHistogram()
        for v in xs:
            h.observe(v)
        back = QuantileHistogram.from_dict(h.to_dict())
        assert back == h
        merged = QuantileHistogram()
        merged.merge(h)
        assert merged == h


def _record(index=0, worker=1, submit=0.0, start=0.0, finish=1.0, **kw):
    """Synthetic flight record with sane defaults."""
    fields = dict(
        index=index,
        region=f"r{index}",
        machine="vliw4",
        scheduler="convergent",
        fingerprint=None,
        cache_status="off",
        worker=worker,
        submit_s=submit,
        start_s=start,
        finish_s=finish,
        queue_wait_s=max(0.0, start - submit),
        execute_s=max(0.0, finish - start),
    )
    fields.update(kw)
    return FlightRecord(**fields)


class TestLedgerRoundTrip:
    def test_flush_and_read(self, tmp_path):
        ledger = FlightLedger()
        ledger.append(_record(0, worker=11))
        ledger.append(_record(1, worker=12, cache_status="hit"))
        path = tmp_path / "sub" / "ledger.jsonl"
        assert ledger.flush(str(path)) == str(path)
        records, skipped = read_ledger(str(path))
        assert skipped == 0
        assert records == ledger.records

    def test_record_dict_round_trip_tags(self):
        record = _record(3, status="failed", attempts=2, degradation_level=1)
        data = record.to_dict()
        assert data["kind"] == "flight" and data["schema"] == 1
        assert FlightRecord.from_dict(data) == record

    def test_pre_change_ledger_line_still_loads_and_renders(self, tmp_path):
        """A ledger written while the engine still had deadlines and
        circuit breakers carries four fields and a status the record no
        longer has; it must still read and render."""
        line = (
            '{"attempts": 2, "breaker": "open", "cache_status": "off", '
            '"cycles": 0, "deadline_s": 0.25, "deadline_slack_s": -0.04, '
            '"degradation_level": 0, "execute_s": 0.29, "fingerprint": null, '
            '"finish_s": 1700000000.3, "index": 3, "kind": "flight", '
            '"machine": "raw4x4", "queue_wait_s": 0.01, "region": "storm_r3", '
            '"route_level": 1, "scheduler": "fallback", "schema": 1, '
            '"start_s": 1700000000.01, "status": "timeout", '
            '"submit_s": 1700000000.0, "worker": 4242}'
        )
        record = FlightRecord.from_dict(json.loads(line))
        assert record == _record(
            3, region="storm_r3", machine="raw4x4", scheduler="fallback",
            worker=4242, submit=1700000000.0, start=1700000000.01,
            finish=1700000000.3, queue_wait_s=0.01, execute_s=0.29,
            attempts=2, status="timeout",
        )
        path = tmp_path / "old.jsonl"
        path.write_text(line + "\n")
        records, skipped = read_ledger(str(path))
        assert skipped == 0 and records == [record]
        text = render_timeline(records, width=32)
        assert "w4242" in text and "?" in text
        assert "tasks 1" in text

    def test_from_dict_rejects_missing_required(self):
        data = _record().to_dict()
        del data["worker"]
        with pytest.raises(KeyError):
            FlightRecord.from_dict(data)

    def test_flush_leaves_no_temp_files(self, tmp_path):
        ledger = FlightLedger()
        ledger.append(_record())
        ledger.flush(str(tmp_path / "ledger.jsonl"))
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


class TestLedgerCrashSafety:
    """Satellite: torn trailing lines are skipped with a counted warning."""

    def _write(self, tmp_path, extra_text):
        ledger = FlightLedger()
        ledger.append(_record(0))
        ledger.append(_record(1))
        path = tmp_path / "ledger.jsonl"
        path.write_text(ledger.to_jsonl() + extra_text)
        return path

    def test_truncated_trailing_line_skipped(self, tmp_path):
        full_line = json.dumps(_record(2).to_dict())
        path = self._write(tmp_path, full_line[: len(full_line) // 2])
        with pytest.warns(UserWarning, match="1 corrupt line"):
            records, skipped = read_ledger(str(path))
        assert skipped == 1
        assert [r.index for r in records] == [0, 1]

    def test_garbage_line_skipped(self, tmp_path):
        path = self._write(tmp_path, "not json at all\n")
        with pytest.warns(UserWarning):
            records, skipped = read_ledger(str(path))
        assert (len(records), skipped) == (2, 1)

    def test_non_object_line_skipped(self, tmp_path):
        path = self._write(tmp_path, "[1, 2, 3]\n")
        with pytest.warns(UserWarning):
            _, skipped = read_ledger(str(path))
        assert skipped == 1

    def test_missing_required_key_skipped(self, tmp_path):
        data = _record(2).to_dict()
        del data["status"]
        path = self._write(tmp_path, json.dumps(data) + "\n")
        with pytest.warns(UserWarning):
            records, skipped = read_ledger(str(path))
        assert (len(records), skipped) == (2, 1)

    def test_clean_ledger_warns_nothing(self, tmp_path):
        path = self._write(tmp_path, "")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records, skipped = read_ledger(str(path))
        assert (len(records), skipped) == (2, 0)


class TestEngineLedger:
    def test_inline_run_emits_one_record_per_region(self):
        machine = ClusteredVLIW(4)
        program = build_benchmark("vvmul", machine)
        from repro.core import ConvergentScheduler

        ledger = FlightLedger()
        result = run_program(
            program, machine, ConvergentScheduler(seed=0),
            check_values=False, engine=CompilationEngine(ledger=ledger),
        )
        assert len(ledger) == len(program.regions)
        record = ledger.records[0]
        assert record.status == "ok"
        assert record.worker == os.getpid()
        assert record.cycles == result.regions[0].cycles
        assert record.execute_s >= 0.0 and record.finish_s >= record.start_s

    def test_ledger_on_matches_ledger_off(self):
        machine = ClusteredVLIW(4)
        program = build_benchmark("fir", machine)
        from repro.core import ConvergentScheduler

        plain = run_program(
            program, machine, ConvergentScheduler(seed=0), check_values=False
        )
        ledger = FlightLedger()
        logged = run_program(
            program, machine, ConvergentScheduler(seed=0),
            check_values=False, engine=CompilationEngine(ledger=ledger),
        )
        assert scrubbed(logged) == scrubbed(plain)
        assert len(ledger) == len(program.regions)

    def test_pooled_run_records_worker_pids(self):
        machine = ClusteredVLIW(4)
        program = build_benchmark("vvmul", machine)
        from repro.core import ConvergentScheduler

        ledger = FlightLedger()
        with CompilationEngine(jobs=2, ledger=ledger) as engine:
            run_program(
                program, machine, ConvergentScheduler(seed=0),
                check_values=False, engine=engine,
            )
        assert len(ledger) == len(program.regions)
        assert all(r.worker > 0 for r in ledger.records)
        assert all(r.submit_s > 0 for r in ledger.records)

    def test_chain_run_records_degradation_level(self):
        machine = ClusteredVLIW(4)
        program = build_benchmark("vvmul", machine)
        from repro.core import ConvergentScheduler
        from repro.faults import make_fault
        from repro.schedulers import (
            FallbackChain,
            SingleClusterScheduler,
            UnifiedAssignAndSchedule,
        )

        def chain(raising):
            passes = [make_fault("raise")] if raising else None
            return FallbackChain(
                [
                    ConvergentScheduler(passes=passes, seed=0, guard=False),
                    UnifiedAssignAndSchedule(),
                    SingleClusterScheduler(),
                ],
                check_values=False,
            )

        for raising, level in ((False, 0), (True, 1)):
            ledger = FlightLedger()
            result = run_program(
                program, machine, chain(raising), check_values=False,
                engine=CompilationEngine(ledger=ledger),
            )
            assert result.ok
            assert len(ledger) == len(program.regions)
            assert all(r.degradation_level == level for r in ledger.records)
            assert all(r.attempts == 1 for r in ledger.records)

    def test_engine_histograms_always_on(self):
        machine = ClusteredVLIW(4)
        program = build_benchmark("vvmul", machine)
        from repro.core import ConvergentScheduler

        with CompilationEngine(jobs=1) as engine:
            run_program(
                program, machine, ConvergentScheduler(seed=0),
                check_values=False, engine=engine,
            )
            snapshot = engine.telemetry.snapshot()
        histograms = snapshot["histograms"]
        assert "engine.queue_wait_seconds.ok" in histograms
        execute = histograms["engine.execute_seconds.ok"]
        assert execute["count"] == len(program.regions)
        assert "p50" in execute

    def test_emitted_histogram_names_are_documented(self):
        for status in ("ok", "failed"):
            assert f"engine.queue_wait_seconds.{status}" in TELEMETRY_NAMES
            assert f"engine.execute_seconds.{status}" in TELEMETRY_NAMES


class TestCampaignLedger:
    def test_faults_campaign_fills_ledger(self):
        from repro.faults import run_campaign

        machine = ClusteredVLIW(4)
        regions = build_benchmark("vvmul", machine).regions
        ledger = FlightLedger()
        report = run_campaign(
            machine, regions, n_trials=4, seed=0,
            engine=CompilationEngine(ledger=ledger),
        )
        assert report.n_trials == 4
        assert len(ledger) == 4
        assert {r.scheduler for r in ledger.records} == {"fallback"}
        assert all(r.worker > 0 for r in ledger.records)
        statuses = {r.status for r in ledger.records}
        assert statuses <= {"ok", "failed"}

    def test_rows_carry_the_fallback_level_as_degradation(self):
        """A trial's chain level is how far it degraded."""
        from repro.faults import run_campaign

        machine = ClusteredVLIW(4)
        regions = build_benchmark("vvmul", machine).regions
        ledger = FlightLedger()
        report = run_campaign(
            machine, regions, n_trials=6, seed=0, guarded_fraction=0.0,
            fault_kinds=["raise"], engine=CompilationEngine(ledger=ledger),
        )
        levels = [o.fallback_level for o in report.outcomes]
        assert any(level >= 1 for level in levels)
        assert [r.degradation_level for r in ledger.records] == levels


class TestTimelineAnalysis:
    def _ledger(self):
        return [
            _record(0, worker=1, submit=0.0, start=0.0, finish=2.0),
            _record(1, worker=1, submit=0.0, start=2.0, finish=4.0,
                    cache_status="hit"),
            _record(2, worker=2, submit=0.0, start=0.0, finish=3.0,
                    cache_status="miss"),
        ]

    def test_stats(self):
        stats = analyze_ledger(self._ledger())
        assert stats.tasks == 3
        assert stats.workers == [1, 2]
        assert stats.makespan_s == pytest.approx(4.0)
        assert stats.critical_path_s == pytest.approx(4.0)
        assert stats.total_execute_s == pytest.approx(7.0)
        assert stats.total_queue_wait_s == pytest.approx(2.0)
        assert stats.cache_hits == 1 and stats.cache_misses == 1
        by_worker = {lane.worker: lane for lane in stats.lanes}
        assert by_worker[1].busy_s == pytest.approx(4.0)
        assert by_worker[2].idle_fraction == pytest.approx(0.25)

    def test_empty_ledger(self):
        stats = analyze_ledger([])
        assert stats.tasks == 0 and stats.makespan_s == 0.0
        assert render_timeline([]) == "empty ledger"

    def test_render_shows_lanes_and_summary(self):
        text = render_timeline(self._ledger(), width=32)
        assert "w1" in text and "w2" in text
        assert "makespan" in text and "queue depth" in text
        assert "▪" in text  # the cache-hit glyph
        assert "cache 1/2 hits" in text

    def test_stats_to_dict_is_json_safe(self):
        data = analyze_ledger(self._ledger()).to_dict()
        json.dumps(data)
        assert data["tasks"] == 3 and len(data["lanes"]) == 2


class TestChromeTrace:
    def test_trace_event_shape(self):
        trace = to_chrome_trace(
            [
                _record(0, worker=1, submit=0.0, start=0.5, finish=2.0),
                _record(1, worker=2, submit=0.0, start=0.0, finish=1.0),
            ]
        )
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        events = trace["traceEvents"]
        # one wait event (record 0 queued 0.5s) + two execute events
        assert len(events) == 3
        for event in events:
            assert event["ph"] == "X"
            assert {"name", "cat", "ts", "dur", "pid", "tid", "args"} <= set(event)
            assert event["ts"] >= 0 and event["dur"] >= 0
        waits = [e for e in events if e["cat"] == "queue"]
        assert len(waits) == 1 and waits[0]["dur"] == pytest.approx(0.5e6)
        json.dumps(trace)

    def test_empty_ledger_serializes(self):
        assert to_chrome_trace([]) == {"traceEvents": [], "displayTimeUnit": "ms"}


def _seed_snapshots(tmp_path, mutate_cycles=None):
    """Copy BENCH_1.json twice into ``tmp_path`` as snapshots 1 and 2.

    Args:
        tmp_path: Destination directory.
        mutate_cycles: Optional ``cycles`` override applied to the first
            cell of snapshot 2.

    Returns:
        The key (machine, benchmark, scheduler) of the mutated cell.
    """
    source = REPO_ROOT / "BENCH_1.json"
    data = json.loads(source.read_text())
    (tmp_path / "BENCH_1.json").write_text(json.dumps(data))
    data2 = json.loads(source.read_text())
    data2["snapshot_id"] = 2
    cell = data2["cells"][0]
    if mutate_cycles is not None:
        cell["quality"]["cycles"] = mutate_cycles
    (tmp_path / "BENCH_2.json").write_text(json.dumps(data2))
    return (cell["machine"], cell["benchmark"], cell["scheduler"])


class TestTrend:
    def test_flags(self):
        trend = CellTrend(
            benchmark="b", machine="m", scheduler="s",
            snapshot_ids=[1, 2], cycles=[100, 120],
            compile_seconds=[0.1, 0.2],
        )
        assert trend.cycles_regressed and not trend.cycles_improved
        assert trend.timing_warn  # 2x > 1.5x warn ratio
        better = CellTrend(
            benchmark="b", machine="m", scheduler="s",
            snapshot_ids=[1, 2], cycles=[120, 100],
            compile_seconds=[0.2, 0.2],
        )
        assert better.cycles_improved and not better.timing_warn

    def test_load_trends_detects_regression(self, tmp_path):
        machine, benchmark, scheduler = _seed_snapshots(
            tmp_path, mutate_cycles=10**6
        )
        ids, trends = load_trends(root=tmp_path)
        assert ids == [1, 2]
        hot = [t for t in trends if t.key == (benchmark, machine, scheduler)]
        assert len(hot) == 1 and hot[0].cycles_regressed
        text = render_trend(ids, trends)
        assert "!" in text and "regression" in text

    def test_load_trends_filters(self, tmp_path):
        machine, benchmark, scheduler = _seed_snapshots(tmp_path)
        _, trends = load_trends(
            root=tmp_path, machine=machine, benchmark=benchmark,
            scheduler=scheduler,
        )
        assert len(trends) == 1
        assert trends[0].snapshot_ids == [1, 2]

    def test_render_empty(self):
        assert render_trend([], []) == "no snapshots found"


class TestCliVerbs:
    def _flushed_ledger(self, tmp_path):
        ledger = FlightLedger()
        ledger.append(_record(0, worker=5, submit=0.0, start=0.0, finish=1.0))
        ledger.append(_record(1, worker=6, submit=0.0, start=0.2, finish=0.8))
        path = tmp_path / "ledger.jsonl"
        ledger.flush(str(path))
        return path

    def test_timeline_verb(self, capsys, tmp_path):
        path = self._flushed_ledger(tmp_path)
        chrome = tmp_path / "trace.json"
        stats = tmp_path / "stats.json"
        code = main(
            ["timeline", str(path), "--chrome-trace", str(chrome),
             "--json", str(stats)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "makespan" in out and "w5" in out
        trace = json.loads(chrome.read_text())
        assert trace["traceEvents"]
        assert json.loads(stats.read_text())["tasks"] == 2

    def test_timeline_verb_missing_file(self, capsys, tmp_path):
        assert main(["timeline", str(tmp_path / "nope.jsonl")]) == 2

    def test_timeline_verb_empty_ledger(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["timeline", str(path)]) == 2

    def test_trend_verb(self, capsys, tmp_path):
        _seed_snapshots(tmp_path)
        out_json = tmp_path / "trend.json"
        code = main(
            ["trend", "--root", str(tmp_path), "--json", str(out_json)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trend over snapshots 1, 2" in out
        payload = json.loads(out_json.read_text())
        assert payload["snapshot_ids"] == [1, 2]
        assert payload["cells"]

    def test_trend_verb_no_snapshots(self, capsys, tmp_path):
        assert main(["trend", "--root", str(tmp_path)]) == 2
        assert "no snapshots found" in capsys.readouterr().out

    def test_trace_json(self, capsys, tmp_path):
        out_json = tmp_path / "trace.json"
        code = main(["trace", "vvmul", "--json", str(out_json)])
        assert code == 0
        data = json.loads(out_json.read_text())
        assert data["passes"] and data["final_confidence"] is not None

    def test_profile_json(self, capsys, tmp_path):
        out_json = tmp_path / "profile.json"
        code = main(
            ["profile", "vvmul", "--fast", "--json", str(out_json)]
        )
        assert code == 0
        data = json.loads(out_json.read_text())
        assert data["phases"] and data["wall_ms"] > 0

    def test_faults_ledger_flag(self, capsys, tmp_path):
        path = tmp_path / "faults.jsonl"
        code = main(
            ["faults", "--machine", "vliw4", "--benchmarks", "vvmul",
             "--trials", "3", "--ledger", str(path)]
        )
        assert code == 0
        assert "flight ledger written" in capsys.readouterr().out
        records, skipped = read_ledger(str(path))
        assert (len(records), skipped) == (3, 0)

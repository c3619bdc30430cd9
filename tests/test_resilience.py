"""Resilience: worker loss, the crash-safe disk cache, hardened verbs.

What is left of the engine's failure handling once every path runs one
attempt per task: a task whose worker is lost (or that captures its
errors) is finished inline in the parent, and a corrupt disk-cache
entry is quarantined and recomputed.  Also the hardened CLI verbs'
exit codes.  The at-scale behavior (a hard-killed worker among 200
regions) lives in ``benchmarks/test_engine_stress.py``.
"""

from __future__ import annotations

import json
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.cli import EXIT_CONFIG, EXIT_FAILURE, EXIT_OK, main
from repro.core import ConvergentScheduler
from repro.engine import (
    CompilationEngine,
    RegionTask,
    ScheduleCache,
    schedule_key,
)
from repro.faults import corrupt_cache_files
from repro.harness import run_program
from repro.ir import RegionBuilder
from repro.ir.regions import Program
from repro.machine import ClusteredVLIW
from repro.observability.metrics import RESILIENCE_COUNTERS, MetricsRegistry
from repro.schedulers import (
    FallbackChain,
    SingleClusterScheduler,
    UnifiedAssignAndSchedule,
)

MACHINE = ClusteredVLIW(4)


def _region(name="rsl", n=10):
    """A small synthetic region with a real dependence structure."""
    b = RegionBuilder(name)
    values = [b.li(1.0), b.li(2.0)]
    for _ in range(n):
        values.append(b.fadd(values[-1], values[-2]))
    b.live_out(values[-1])
    return b.build()


def _put_entry(cache, region):
    """Schedule ``region`` with UAS and store it; returns the key."""
    scheduler = UnifiedAssignAndSchedule()
    schedule = scheduler.schedule(region, MACHINE)
    key = schedule_key(region, MACHINE, scheduler)
    cache.put(
        key,
        schedule,
        cycles=11,
        transfers=2,
        utilization=0.5,
        comm_busy=1,
        compile_seconds=0.01,
    )
    return key


class TestCrashSafeCache:
    def test_disk_entries_are_checksummed_wrappers(self, tmp_path):
        cache = ScheduleCache(disk_dir=tmp_path)
        region = _region("wrap")
        _put_entry(cache, region)
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        wrapper = json.loads(files[0].read_text())
        assert wrapper["kind"] == "schedule_cache_file"
        assert wrapper["file_version"] == 1
        assert len(wrapper["sha256"]) == 64

    def test_corrupt_file_is_a_quarantined_miss(self, tmp_path):
        region = _region("corrupt")
        key = _put_entry(ScheduleCache(disk_dir=tmp_path), region)
        victim = next(tmp_path.glob("*.json"))
        victim.write_text(victim.read_text()[: len(victim.read_text()) // 2])
        fresh = ScheduleCache(disk_dir=tmp_path)
        assert fresh.get(key, region) is None
        assert fresh.stats.corrupt == 1
        assert fresh.stats.quarantined == 1
        assert not victim.exists()
        assert len(list((tmp_path / "quarantine").iterdir())) == 1
        # The poisoned slot is writable again and then hits.
        _put_entry(fresh, region)
        assert fresh.get(key, region) is not None

    def test_bitflip_fails_the_checksum(self, tmp_path):
        region = _region("bitflip")
        key = _put_entry(ScheduleCache(disk_dir=tmp_path), region)
        victim = next(tmp_path.glob("*.json"))
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0x20
        victim.write_bytes(bytes(raw))
        fresh = ScheduleCache(disk_dir=tmp_path)
        assert fresh.get(key, region) is None
        assert fresh.stats.corrupt == 1

    def test_verify_disk_buckets_and_rebuild(self, tmp_path):
        cache = ScheduleCache(disk_dir=tmp_path)
        regions = [_region(f"vrfy{i}") for i in range(3)]
        for region in regions:
            _put_entry(cache, region)
        files = sorted(tmp_path.glob("*.json"))
        files[0].write_text("garbage{")
        files[1].write_text(
            files[1].read_text().replace('"file_version": 1', '"file_version": 99')
        )
        report = ScheduleCache(disk_dir=tmp_path).verify_disk()
        assert report["checked"] == 3
        assert report["ok"] == 1
        assert report["corrupt"] == 1
        assert report["version_skew"] == 1

    def test_stats_and_gc(self, tmp_path):
        cache = ScheduleCache(disk_dir=tmp_path)
        region = _region("gc")
        key = _put_entry(cache, region)
        (tmp_path / ".stale-partial.tmp").write_text("partial")
        next(tmp_path.glob("*.json")).write_text("torn")
        fresh = ScheduleCache(disk_dir=tmp_path)
        assert fresh.get(key, region) is None  # quarantines the torn file
        stats = fresh.disk_stats()
        assert stats["entries"] == 0
        assert stats["quarantined"] == 1
        assert stats["tmp_files"] == 1
        removed = fresh.gc()
        assert removed == {"quarantine_removed": 1, "tmp_removed": 1}
        assert fresh.disk_stats() == {
            "entries": 0, "bytes": 0, "quarantined": 0, "tmp_files": 0,
        }

    def test_corrupted_store_is_quarantined_and_warm_run_matches_cold(
        self, tmp_path
    ):
        """Damage half a filled store in four ways; a warm run detects,
        quarantines and recomputes every victim, reports exactly the
        cold run's numbers, and leaves a store that verifies clean."""
        rng = np.random.default_rng(17)
        program = Program("corruptp")
        for r in range(12):
            b = RegionBuilder(f"corrupt_r{r}")
            values = [b.li(float(rng.integers(1, 9))) for _ in range(2)]
            for _ in range(int(rng.integers(6, 14))):
                op = ("fadd", "fmul", "fsub", "add")[int(rng.integers(4))]
                x = values[int(rng.integers(len(values)))]
                y = values[int(rng.integers(len(values)))]
                values.append(getattr(b, op)(x, y))
            b.live_out(values[-1])
            program.add(b.build())

        def run(cache):
            chain = FallbackChain(
                [
                    ConvergentScheduler(seed=0),
                    UnifiedAssignAndSchedule(),
                    SingleClusterScheduler(),
                ],
                check_values=False,
            )
            result = run_program(
                program, MACHINE, chain, check_values=False, cache=cache
            )
            return [(r.status, r.cycles, r.transfers) for r in result.regions]

        cold = run(ScheduleCache(disk_dir=tmp_path))
        assert all(status == "ok" for status, _, _ in cold)
        damaged = corrupt_cache_files(str(tmp_path), np.random.default_rng(23))
        assert damaged == 6
        warm_cache = ScheduleCache(disk_dir=tmp_path)
        assert run(warm_cache) == cold
        assert warm_cache.stats.quarantined > 0
        report = warm_cache.verify_disk()
        assert report["corrupt"] == 0
        assert report["version_skew"] == 0
        assert warm_cache.gc()["quarantine_removed"] > 0
        assert warm_cache.disk_stats()["quarantined"] == 0


class _SubmitBreaksOnSecondCall:
    """Executor stand-in whose ``submit`` reports a broken pool.

    The first task runs in-process; the second ``submit`` raises the
    :exc:`BrokenProcessPool` a real pool raises once a worker died.
    """

    def __init__(self):
        self.calls = 0

    def submit(self, fn, *args):
        self.calls += 1
        if self.calls == 2:
            raise BrokenProcessPool("A child process terminated abruptly")
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestBrokenPoolAtSubmit:
    def test_no_region_is_lost(self):
        regions = [_region(f"sb_r{i}") for i in range(5)]
        tasks = [
            RegionTask(
                index=i, region=region, machine=MACHINE,
                scheduler=ConvergentScheduler(seed=0), check_values=False,
                capture_errors=True,
            )
            for i, region in enumerate(regions)
        ]
        executor = _SubmitBreaksOnSecondCall()
        with CompilationEngine(jobs=2) as engine:
            engine._executor = executor
            outcomes = engine.run_tasks(tasks)
            assert engine.pool_breaks == 1
        assert executor.calls == 2
        assert [o.index for o in outcomes] == list(range(len(regions)))
        assert [o.result.region_name for o in outcomes] == [r.name for r in regions]
        assert all(o.result.ok for o in outcomes)


class _FailingFutures:
    """Executor stand-in whose futures fail with the given exceptions.

    ``errors[i]`` is the exception the ``i``-th submitted task's future
    reports (``None`` runs the task in-process).
    """

    def __init__(self, errors):
        self.errors = list(errors)
        self.calls = 0

    def submit(self, fn, *args):
        error = self.errors[self.calls]
        self.calls += 1
        future = Future()
        if error is None:
            future.set_result(fn(*args))
        else:
            future.set_exception(error)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def _tasks(n, capture_errors=False):
    return [
        RegionTask(
            index=i, region=_region(f"we_r{i}"), machine=MACHINE,
            scheduler=UnifiedAssignAndSchedule(), check_values=False,
            capture_errors=capture_errors,
        )
        for i in range(n)
    ]


class TestWorkerErrors:
    def test_infrastructure_errors_are_rescued_inline(self):
        """A lost worker or a broken pipe is not the task's fault: the
        parent finishes the task, even one that captures no errors."""
        errors = [
            None,
            EOFError(),
            OSError("pipe"),
            ConnectionResetError(),
            BrokenProcessPool("A child process terminated abruptly"),
            BrokenProcessPool("A child process terminated abruptly"),
        ]
        tasks = _tasks(len(errors))
        with CompilationEngine(jobs=2) as engine:
            engine._executor = _FailingFutures(errors)
            outcomes = engine.run_tasks(tasks)
            assert engine.pool_breaks == 1
            assert engine.telemetry.counters["resilience.rescues"] == 5
        assert all(o.result.ok for o in outcomes)
        assert [o.attempts for o in outcomes] == [1, 2, 2, 2, 2, 2]
        expected = [
            run_program(
                Program("one", [t.region]), MACHINE, UnifiedAssignAndSchedule(),
                check_values=False,
            ).cycles
            for t in tasks
        ]
        assert [o.result.cycles for o in outcomes] == expected

    def test_task_errors_propagate_unless_captured(self):
        with CompilationEngine(jobs=2) as engine:
            engine._executor = _FailingFutures([ValueError("bad schedule")])
            with pytest.raises(ValueError, match="bad schedule"):
                engine.run_tasks(_tasks(1))
        with CompilationEngine(jobs=2) as engine:
            engine._executor = _FailingFutures([ValueError("bad schedule")])
            (outcome,) = engine.run_tasks(_tasks(1, capture_errors=True))
            assert engine.pool_breaks == 0
            assert engine.telemetry.counters["resilience.rescues"] == 1
        assert outcome.result.ok and outcome.attempts == 2


class TestHarnessIntegration:
    def test_resilience_counter_names_are_registered(self):
        assert RESILIENCE_COUNTERS == ("resilience.rescues",)

    def test_rescues_reach_the_callers_registry(self):
        """``run_program`` folds the engine's rescue count into the
        caller's registry, and the rescued region still compiles."""
        program = Program("rescuep", [_region("rs_r0"), _region("rs_r1")])
        registry = MetricsRegistry()
        with CompilationEngine(jobs=2) as engine:
            engine._executor = _FailingFutures([None, EOFError()])
            result = run_program(
                program, MACHINE, UnifiedAssignAndSchedule(),
                check_values=False, registry=registry, engine=engine,
            )
        expected = run_program(
            program, MACHINE, UnifiedAssignAndSchedule(), check_values=False,
        )
        assert result.ok
        assert [r.cycles for r in result.regions] == [
            r.cycles for r in expected.regions
        ]
        assert registry.counters["resilience.rescues"] == 1
        assert registry.counters["regions.ok"] == 2


class TestHardenedCli:
    def test_cache_stats_verify_gc_round_trip(self, tmp_path, capsys):
        cache = ScheduleCache(disk_dir=tmp_path)
        _put_entry(cache, _region("cli"))
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == EXIT_OK
        assert main(["cache", "verify", "--dir", str(tmp_path)]) == EXIT_OK
        next(tmp_path.glob("*.json")).write_text("torn{")
        assert main(["cache", "verify", "--dir", str(tmp_path)]) == EXIT_FAILURE
        assert main(["cache", "gc", "--dir", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "1 entries" in out and "quarantined" in out

    def test_missing_cache_dir_is_a_config_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert main(["cache", "stats", "--dir", missing]) == EXIT_CONFIG
        assert "no such cache directory" in capsys.readouterr().err

    def test_bad_machine_spec_is_a_config_error(self, capsys):
        code = main(["faults", "--machine", "bogus", "--trials", "2"])
        assert code == EXIT_CONFIG
        assert "unknown machine" in capsys.readouterr().err

    def test_faults_fail_fast_flag_parses(self, capsys):
        code = main([
            "faults", "--machine", "vliw4", "--benchmarks", "vvmul",
            "--trials", "4", "--fail-fast",
        ])
        assert code == EXIT_OK
        assert "campaign" in capsys.readouterr().out

class TestFailFastCampaign:
    def test_fail_fast_runs_everything_when_nothing_crashes(self):
        from repro.faults import run_campaign

        report = run_campaign(
            MACHINE,
            [_region("ff")],
            n_trials=12,
            seed=0,
            guarded_fraction=0.0,
            fault_kinds=["raise"],
            fail_fast=True,
            engine=CompilationEngine(),
        )
        # The chain absorbs every injected raise, so fail-fast must run
        # the full campaign and report it untruncated.
        assert report.ok
        assert report.n_trials == 12
        assert not report.truncated
        assert "[truncated: fail-fast]" not in report.render()

    def test_truncated_report_is_marked_in_the_render(self):
        from repro.faults import CampaignReport

        report = CampaignReport(machine_name="vliw4", seed=0, truncated=True)
        assert "[truncated: fail-fast]" in report.render()

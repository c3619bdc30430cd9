"""Resilience layer: deadlines, retries, breakers, crash-safe caching.

Unit coverage for :mod:`repro.engine.resilience` plus the seams it is
woven through: the convergent driver's cooperative budget checks, the
pass guard's deadline re-raise, the fallback chain's routing floor, the
checksummed/quarantining disk cache, the deadline-aware fingerprint,
the harness's ``timeout`` status, and the hardened CLI verbs.  The
at-scale behavior (waves, kills, respawns) lives in
``tests/test_engine.py`` and ``benchmarks/test_engine_stress.py``.
"""

from __future__ import annotations

import json
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cli import EXIT_CONFIG, EXIT_FAILURE, EXIT_OK, main
from repro.core import ConvergentScheduler
from repro.engine import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BreakerBoard,
    Budget,
    CircuitBreaker,
    CompilationEngine,
    DeadlineExceeded,
    RegionTask,
    ResilienceConfig,
    RetryPolicy,
    ScheduleCache,
    active_budget,
    budget_scope,
    schedule_key,
)
from repro.faults import (
    TIMING_FAULT_REGISTRY,
    HangingPass,
    SlowPass,
    make_fault,
)
from repro.harness import run_program
from repro.harness.experiment import STATUS_TIMEOUT
from repro.ir import RegionBuilder
from repro.ir.regions import Program
from repro.machine import ClusteredVLIW
from repro.observability.flight import FlightLedger
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


def _expired_budget():
    """A budget that was already overspent before it was created."""
    return Budget(deadline_s=0.05, started=-1e9)


class TestBudget:
    def test_fresh_budget_is_not_expired(self):
        budget = Budget(deadline_s=60.0)
        assert not budget.expired
        assert budget.remaining() > 0
        budget.check("anywhere")  # must not raise

    def test_expired_budget_checks_raise_with_location(self):
        budget = _expired_budget()
        assert budget.expired
        assert budget.remaining() < 0
        with pytest.raises(DeadlineExceeded, match="pass COMM"):
            budget.check("pass COMM")

    def test_scope_installs_and_restores(self):
        assert active_budget() is None
        outer = Budget(deadline_s=60.0)
        inner = Budget(deadline_s=1.0)
        with budget_scope(outer):
            assert active_budget() is outer
            with budget_scope(inner):
                assert active_budget() is inner
            assert active_budget() is outer
        assert active_budget() is None

    def test_scope_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with budget_scope(Budget(deadline_s=60.0)):
                raise RuntimeError("boom")
        assert active_budget() is None


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_grows(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, jitter=0.5)
        d2 = policy.delay_for(2, key="regionA")
        d3 = policy.delay_for(3, key="regionA")
        assert d2 == policy.delay_for(2, key="regionA")
        assert 0.1 <= d2 <= 0.15
        assert 0.2 <= d3 <= 0.3
        assert policy.delay_for(2, key="regionB") != d2  # jitter varies by key

    def test_zero_base_delay_disables_sleeping(self):
        assert RetryPolicy(base_delay_s=0.0).delay_for(5, key="x") == 0.0

    def test_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(EOFError())
        assert policy.is_retryable(BrokenPipeError())
        assert policy.is_retryable(OSError("pipe"))
        assert not policy.is_retryable(DeadlineExceeded("late"))
        assert not policy.is_retryable(ValueError("bad schedule"))
        broken = type("BrokenProcessPool", (RuntimeError,), {})()
        assert policy.is_retryable(broken)

    def test_max_attempts_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_tasks=2)
        breaker.record(False)
        breaker.record(False)
        breaker.record(True)  # success resets the streak
        breaker.record(False)
        breaker.record(False)
        assert breaker.state == BREAKER_CLOSED
        breaker.record(False)
        assert breaker.state == BREAKER_OPEN
        assert breaker.trips == 1

    def test_open_routes_then_probes_then_resets(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_tasks=2)
        breaker.record(False)
        assert breaker.state == BREAKER_OPEN
        assert breaker.route() == 1  # cooldown task 1: routed
        assert breaker.route() == 0  # cooldown exhausted: probe
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.probes == 1
        breaker.record(True)
        assert breaker.state == BREAKER_CLOSED
        assert breaker.resets == 1

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_tasks=1)
        breaker.record(False)
        assert breaker.route() == 0  # immediate probe (cooldown 1)
        breaker.record(False)
        assert breaker.state == BREAKER_OPEN
        assert breaker.trips == 2

    def test_board_keys_cells_independently(self):
        board = BreakerBoard(failure_threshold=1, cooldown_tasks=1)
        one = board.breaker("fallback", "vliw4")
        two = board.breaker("fallback", "raw4x4")
        assert one is board.breaker("fallback", "vliw4")
        assert one is not two
        one.record(False)
        assert board.total_trips == 1
        assert board.snapshot() == {
            "fallback@raw4x4": BREAKER_CLOSED,
            "fallback@vliw4": BREAKER_OPEN,
        }


class TestCooperativeDeadline:
    def test_bare_convergent_raises_between_passes(self):
        region = _region("deadline_bare")
        with budget_scope(_expired_budget()):
            with pytest.raises(DeadlineExceeded):
                ConvergentScheduler(seed=0).schedule(region, MACHINE)

    def test_guard_does_not_swallow_the_deadline(self):
        region = _region("deadline_guarded")
        scheduler = ConvergentScheduler(seed=0, guard=True)
        with budget_scope(_expired_budget()):
            with pytest.raises(DeadlineExceeded):
                scheduler.schedule(region, MACHINE)

    def test_fallback_chain_absorbs_into_degradation(self):
        region = _region("deadline_chain")
        chain = FallbackChain(
            [
                ConvergentScheduler(seed=0),
                UnifiedAssignAndSchedule(),
                SingleClusterScheduler(),
            ]
        )
        with budget_scope(_expired_budget()):
            schedule = chain.schedule(region, MACHINE)
        assert schedule is not None
        assert chain.last_level == 1
        assert "DeadlineExceeded" in chain.last_report.attempts[0].error

    def test_hanging_pass_is_interrupted_by_the_budget(self):
        region = _region("deadline_hang")
        passes = [HangingPass(hang_s=30.0)]
        scheduler = ConvergentScheduler(passes=passes, seed=0)
        with budget_scope(Budget(deadline_s=0.05)):
            with pytest.raises(DeadlineExceeded):
                scheduler.schedule(region, MACHINE)

    def test_unbudgeted_hanging_pass_exits_after_hang_s(self):
        region = _region("deadline_nohang")
        scheduler = ConvergentScheduler(
            passes=[HangingPass(hang_s=0.02)], seed=0
        )
        assert scheduler.schedule(region, MACHINE) is not None


class TestTimingFaultRegistry:
    def test_timing_kinds_live_apart_from_the_frozen_registry(self):
        from repro.faults import FAULT_REGISTRY

        assert sorted(FAULT_REGISTRY) == ["nan", "negative", "raise", "zero_row"]
        assert sorted(TIMING_FAULT_REGISTRY) == ["hang", "slow"]
        assert isinstance(make_fault("slow"), SlowPass)
        assert isinstance(make_fault("hang"), HangingPass)
        with pytest.raises(KeyError, match="hang"):
            make_fault("nonsense")


class TestChainRoutingFloor:
    def test_min_level_skips_members_and_records_it(self):
        region = _region("routed")
        chain = FallbackChain(
            [
                ConvergentScheduler(seed=0),
                UnifiedAssignAndSchedule(),
                SingleClusterScheduler(),
            ],
            min_level=1,
        )
        schedule = chain.schedule(region, MACHINE)
        assert schedule is not None
        assert chain.last_level == 1
        first = chain.last_report.attempts[0]
        assert not first.ok and "circuit open" in first.error

    def test_min_level_validated(self):
        with pytest.raises(ValueError):
            FallbackChain([UnifiedAssignAndSchedule()], min_level=-1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_engine_keeps_the_configured_floor(self, jobs):
        """The engine raises a chain's floor to a breaker's, never
        lowers it: every region is served by the second member."""
        program = Program("floorp", [_region(f"fl_r{i}") for i in range(3)])
        chain = FallbackChain(
            [
                ConvergentScheduler(seed=0),
                UnifiedAssignAndSchedule(),
                SingleClusterScheduler(),
            ],
            min_level=1,
        )
        ledger = FlightLedger()
        with CompilationEngine(jobs=jobs, ledger=ledger) as engine:
            result = run_program(
                program, MACHINE, chain, check_values=False, engine=engine,
            )
        expected = run_program(
            program, MACHINE, UnifiedAssignAndSchedule(), check_values=False,
        )
        assert result.ok
        assert [r.cycles for r in result.regions] == [
            r.cycles for r in expected.regions
        ]
        assert len(ledger.records) == len(program.regions)
        assert all(r.degradation_level >= 1 for r in ledger.records)
        assert chain.min_level == 1


class TestDeadlineFingerprint:
    def test_deadline_changes_the_key_only_when_set(self):
        region = _region("fp")
        scheduler = UnifiedAssignAndSchedule()
        plain = schedule_key(region, MACHINE, scheduler)
        same = schedule_key(region, MACHINE, scheduler, deadline_s=None)
        budgeted = schedule_key(region, MACHINE, scheduler, deadline_s=0.25)
        other = schedule_key(region, MACHINE, scheduler, deadline_s=0.5)
        assert plain.key == same.key  # legacy keys unchanged
        assert budgeted.key != plain.key
        assert budgeted.key != other.key

    def test_min_level_changes_the_chain_key(self):
        region = _region("fp_chain")
        plain = schedule_key(
            region, MACHINE, FallbackChain([UnifiedAssignAndSchedule()])
        )
        routed = schedule_key(
            region,
            MACHINE,
            FallbackChain([UnifiedAssignAndSchedule()], min_level=0),
        )
        floor = schedule_key(
            region,
            MACHINE,
            FallbackChain(
                [SingleClusterScheduler(), UnifiedAssignAndSchedule()],
                min_level=1,
            ),
        )
        assert plain.key == routed.key
        assert floor.key != plain.key


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


class TestHarnessIntegration:
    def test_timeout_status_and_counters(self):
        program = Program("timeoutp", [_region("to_r0"), _region("to_r1")])
        registry = MetricsRegistry()
        result = run_program(
            program,
            MACHINE,
            ConvergentScheduler(seed=0),
            check_values=False,
            capture_errors=True,
            registry=registry,
            engine=CompilationEngine(resilience=ResilienceConfig(deadline_s=1e-9)),
        )
        assert not result.ok
        assert all(r.status == STATUS_TIMEOUT for r in result.regions)
        assert all("DeadlineExceeded" in r.error for r in result.regions)
        counters = registry.counters
        assert counters["regions.timeout"] == 2
        assert counters["resilience.timeouts"] == 2

    def test_chain_degrades_instead_of_timing_out(self):
        program = Program("degradep", [_region("dg_r0")])
        chain = FallbackChain(
            [
                ConvergentScheduler(
                    passes=[SlowPass(delay_s=0.2)], seed=0
                ),
                UnifiedAssignAndSchedule(),
                SingleClusterScheduler(),
            ]
        )
        registry = MetricsRegistry()
        result = run_program(
            program,
            MACHINE,
            chain,
            check_values=False,
            registry=registry,
            engine=CompilationEngine(resilience=ResilienceConfig(deadline_s=0.05)),
        )
        assert result.ok
        assert registry.counters.get("resilience.timeouts", 0) == 0

    def test_resilience_counter_names_are_registered(self):
        assert "resilience.retries" in RESILIENCE_COUNTERS
        assert "resilience.breaker_trips" in RESILIENCE_COUNTERS
        assert len(set(RESILIENCE_COUNTERS)) == len(RESILIENCE_COUNTERS)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(deadline_s=0.0)
        with pytest.raises(ValueError):
            ResilienceConfig(kill_tolerance_s=-1.0)
        with pytest.raises(ValueError):
            ResilienceConfig(max_pool_respawns=-1)


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
        code = main(["resilience", "--machine", "bogus", "--regions", "2"])
        assert code == EXIT_CONFIG
        assert "unknown machine" in capsys.readouterr().err

    def test_faults_fail_fast_flag_parses(self, capsys):
        code = main([
            "faults", "--machine", "vliw4", "--benchmarks", "vvmul",
            "--trials", "4", "--fail-fast",
        ])
        assert code == EXIT_OK
        assert "campaign" in capsys.readouterr().out

    def test_small_resilience_storm_through_cli(self, tmp_path, capsys):
        code = main([
            "resilience", "--regions", "12", "--jobs", "2",
            "--deadline", "0.3", "--seed", "3",
            "--cache-dir", str(tmp_path / "storm-cache"),
        ])
        assert code == EXIT_OK
        assert "verdict:             OK" in capsys.readouterr().out


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

"""Unit tests for the dynamic timing cross-check."""

import dataclasses

import pytest

from repro.core import ConvergentScheduler
from repro.machine import raw_with_tiles
from repro.schedulers import ListScheduler, RawccScheduler, UnifiedAssignAndSchedule
from repro.sim.dynamic import crosscheck, dynamic_execute
from repro.workloads import build_benchmark

from .conftest import build_dot_region


class TestAgreement:
    @pytest.mark.parametrize("bench_name", ["jacobi", "mxm", "sha"])
    def test_raw_schedules_replay_exactly(self, bench_name):
        machine = raw_with_tiles(4)
        region = build_benchmark(bench_name, machine).regions[0]
        for scheduler in (ConvergentScheduler(), RawccScheduler()):
            schedule = scheduler.schedule(region, machine)
            crosscheck(region, machine, schedule)  # must not raise

    @pytest.mark.parametrize("bench_name", ["vvmul", "tomcatv"])
    def test_vliw_schedules_replay_exactly(self, bench_name, vliw4):
        region = build_benchmark(bench_name, vliw4).regions[0]
        for scheduler in (ConvergentScheduler(), UnifiedAssignAndSchedule()):
            schedule = scheduler.schedule(region, vliw4)
            crosscheck(region, vliw4, schedule)

    def test_dynamic_cycles_match_makespan(self, vliw4):
        region = build_dot_region(n=8, banks=4)
        schedule = UnifiedAssignAndSchedule().schedule(region, vliw4)
        report = dynamic_execute(region, vliw4, schedule)
        assert report.ok
        assert report.cycles <= schedule.makespan


class TestDisagreement:
    def test_detects_optimistic_start(self, vliw4):
        region = build_dot_region(n=4, banks=4)
        assignment = {i: (0 if i < 8 else 1) for i in range(len(region.ddg))}
        schedule = ListScheduler().schedule(region, vliw4, assignment=assignment)
        # Pull the last instruction to cycle 0: operands not yet there.
        victim = max(schedule.ops.values(), key=lambda op: op.start)
        schedule.ops[victim.uid] = dataclasses.replace(victim, start=0)
        report = dynamic_execute(region, vliw4, schedule)
        assert victim.uid in report.stalled_instructions
        with pytest.raises(AssertionError, match="stalled"):
            crosscheck(region, vliw4, schedule)

    def test_detects_optimistic_transfer(self):
        machine = raw_with_tiles(4)
        region = build_benchmark("jacobi", machine).regions[0]
        schedule = ConvergentScheduler().schedule(region, machine)
        if not schedule.comms:
            pytest.skip("no transfers")
        ev = schedule.comms[0]
        schedule.comms[0] = dataclasses.replace(ev, arrival=ev.issue)
        report = dynamic_execute(region, machine, schedule)
        assert 0 in report.late_transfers

"""Unit tests for schedule validation and dataflow replay.

The simulator must accept every schedule our schedulers emit (covered
elsewhere) *and* reject corrupted ones: these tests mutate valid
schedules in targeted ways and check the right violation is reported.
"""

import dataclasses

import pytest

from repro.ir import RegionBuilder
from repro.schedulers import ListScheduler
from repro.schedulers.schedule import Schedule, ScheduledOp
from repro.sim import SimulationError, simulate

from .conftest import build_dot_region


@pytest.fixture
def valid(vliw4):
    region = build_dot_region(n=4, banks=4)
    assignment = {i: (0 if i < 8 else 1) for i in range(len(region.ddg))}
    schedule = ListScheduler().schedule(region, vliw4, assignment=assignment)
    return region, vliw4, schedule


def clone_without_op(schedule, uid):
    out = Schedule(schedule.region_name, schedule.machine_name)
    for k, op in schedule.ops.items():
        if k != uid:
            out.add_op(op)
    out.comms = list(schedule.comms)
    return out


def clone_with_op(schedule, replacement):
    out = Schedule(schedule.region_name, schedule.machine_name)
    for k, op in schedule.ops.items():
        out.add_op(replacement if k == replacement.uid else op)
    out.comms = list(schedule.comms)
    return out


class TestAccepts:
    def test_valid_schedule_passes(self, valid):
        region, machine, schedule = valid
        report = simulate(region, machine, schedule)
        assert report.ok
        assert report.cycles == schedule.makespan
        assert report.values_checked == len(region.ddg)

    def test_report_statistics(self, valid):
        region, machine, schedule = valid
        report = simulate(region, machine, schedule)
        assert report.instructions == len(region.real_instructions())
        assert report.transfers == schedule.comm_count()
        assert 0.0 < report.utilization(machine) <= 1.0


class TestRejects:
    def test_missing_instruction(self, valid):
        region, machine, schedule = valid
        broken = clone_without_op(schedule, 0)
        report = simulate(region, machine, broken, strict=False, check_values=False)
        assert not report.ok
        assert any("coverage" in e for e in report.errors)

    def test_strict_mode_raises(self, valid):
        region, machine, schedule = valid
        broken = clone_without_op(schedule, 0)
        with pytest.raises(SimulationError):
            simulate(region, machine, broken)

    def test_unit_conflict(self, valid):
        region, machine, schedule = valid
        # Force two FPU ops onto the same unit and cycle.
        fp_ops = [op for op in schedule.ops.values()
                  if region.ddg.instruction(op.uid).opcode.value == "fmul"]
        a, b = fp_ops[0], fp_ops[1]
        clash = dataclasses.replace(b, cluster=a.cluster, unit=a.unit, start=a.start)
        broken = clone_with_op(schedule, clash)
        report = simulate(region, machine, broken, strict=False, check_values=False)
        assert any("conflict" in e or "before operand" in e or "starts" in e
                   for e in report.errors)

    def test_dependence_violation(self, valid):
        region, machine, schedule = valid
        # Move a reduction op to cycle 0, before its operands.
        target = max(schedule.ops.values(), key=lambda op: op.start)
        early = dataclasses.replace(target, start=0)
        broken = clone_with_op(schedule, early)
        report = simulate(region, machine, broken, strict=False, check_values=False)
        assert not report.ok

    def test_wrong_latency(self, valid):
        region, machine, schedule = valid
        op = schedule.ops[0]
        broken = clone_with_op(schedule, dataclasses.replace(op, latency=op.latency + 1))
        report = simulate(region, machine, broken, strict=False, check_values=False)
        assert any("latency" in e for e in report.errors)

    def test_preplacement_violation(self, raw4):
        b = RegionBuilder("r")
        x = b.load(bank=1, array="a")
        b.live_out(x)
        from repro.ir.regions import Program
        from repro.workloads import apply_congruence

        program = Program("p", [b.build()])
        apply_congruence(program, raw4)
        region = program.regions[0]
        schedule = Schedule("r", raw4.name)
        schedule.add_op(ScheduledOp(uid=0, cluster=0, unit=0, start=0, latency=3))
        schedule.add_op(ScheduledOp(uid=1, cluster=0, unit=-1, start=3, latency=0))
        report = simulate(region, raw4, schedule, strict=False, check_values=False)
        assert any("feasible" in e for e in report.errors)

    def test_missing_transfer_detected(self, vliw4):
        b = RegionBuilder("r")
        x = b.li(1.0)
        y = b.fadd(x, x)
        b.live_out(y)
        region = b.build()
        schedule = Schedule("r", vliw4.name)
        schedule.add_op(ScheduledOp(uid=0, cluster=0, unit=0, start=0, latency=1))
        schedule.add_op(ScheduledOp(uid=1, cluster=1, unit=2, start=5, latency=4))
        schedule.add_op(ScheduledOp(uid=2, cluster=1, unit=-1, start=9, latency=0))
        report = simulate(region, vliw4, schedule, strict=False, check_values=False)
        assert any("never reaches" in e for e in report.errors)

    def test_premature_transfer_detected(self, valid):
        region, machine, schedule = valid
        if not schedule.comms:
            pytest.skip("no transfers in this schedule")
        ev = schedule.comms[0]
        schedule.comms[0] = dataclasses.replace(ev, issue=-1, arrival=-1 + 1)
        report = simulate(region, machine, schedule, strict=False, check_values=False)
        assert not report.ok

    def test_network_contention_detected(self, vliw4):
        b = RegionBuilder("r")
        x = b.li(1.0)
        y = b.li(2.0)
        u = b.fadd(x, x)
        v = b.fadd(y, y)
        b.live_out(u)
        b.live_out(v)
        region = b.build()
        assignment = {x.uid: 0, y.uid: 0, u.uid: 1, v.uid: 2, 4: 1, 5: 2}
        schedule = ListScheduler().schedule(region, vliw4, assignment=assignment)
        # Force both transfers onto the same issue cycle.
        first = schedule.comms[0]
        schedule.comms[1] = dataclasses.replace(
            schedule.comms[1], issue=first.issue, arrival=first.issue + 1
        )
        report = simulate(region, vliw4, schedule, strict=False, check_values=False)
        assert any("contention" in e for e in report.errors)


class TestResourceAccounting:
    def test_resource_busy_counts_transfers(self, vliw4):
        from repro.ir import RegionBuilder
        b = RegionBuilder("r")
        x = b.li(1.0)
        y = b.fadd(x, x)
        b.live_out(y)
        region = b.build()
        schedule = ListScheduler().schedule(
            region, vliw4, assignment={0: 0, 1: 1, 2: 1}
        )
        report = simulate(region, vliw4, schedule)
        assert report.resource_busy == {("xfer", 0, -1): 1}
        assert report.hottest_resource() == (("xfer", 0, -1), 1)

    def test_no_transfers_no_hotspot(self, vliw4):
        region = build_dot_region()
        schedule = ListScheduler().schedule(
            region, vliw4, assignment={i: 0 for i in range(len(region.ddg))}
        )
        report = simulate(region, vliw4, schedule)
        assert report.resource_busy == {}
        assert report.hottest_resource() is None

    def test_raw_links_counted_per_hop(self, raw16):
        from repro.ir import RegionBuilder
        b = RegionBuilder("r")
        x = b.li(1.0)
        y = b.fadd(x, x)
        b.live_out(y)
        region = b.build()
        schedule = ListScheduler().schedule(
            region, raw16, assignment={0: 0, 1: 15, 2: 15}
        )
        report = simulate(region, raw16, schedule)
        # Injection port, six directed links, ejection port: one cycle each.
        assert sum(report.resource_busy.values()) == 8

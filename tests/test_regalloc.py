"""Unit tests for register pressure analysis and linear-scan allocation."""


from repro.ir import RegionBuilder
from repro.machine import ClusteredVLIW
from repro.regalloc import (
    allocate_registers,
    live_intervals,
    pressure_profile,
    spill_adjusted_cycles,
)
from repro.schedulers import ListScheduler

from .conftest import build_chain_region, build_dot_region


def schedule_on(region, machine, cluster=0):
    assignment = {i: cluster for i in range(len(region.ddg))}
    return ListScheduler().schedule(region, machine, assignment=assignment)


class TestLiveIntervals:
    def test_interval_spans_definition_to_last_use(self, vliw1):
        b = RegionBuilder("r")
        x = b.li(1.0)
        y = b.fadd(x, x)
        z = b.fadd(y, x)  # x used late
        b.live_out(z)
        region = b.build()
        schedule = schedule_on(region, vliw1)
        intervals = {iv.value: iv for iv in live_intervals(region, vliw1, schedule)}
        x_iv = intervals[x.uid]
        assert x_iv.start == schedule.ops[x.uid].finish
        assert x_iv.end == schedule.ops[z.uid].start

    def test_transferred_value_lives_on_both_clusters(self, vliw4):
        b = RegionBuilder("r")
        x = b.li(1.0)
        y = b.fadd(x, x)
        b.live_out(y)
        region = b.build()
        assignment = {x.uid: 0, y.uid: 1, 2: 1}
        schedule = ListScheduler().schedule(region, vliw4, assignment=assignment)
        clusters = {iv.cluster for iv in live_intervals(region, vliw4, schedule)
                    if iv.value == x.uid}
        assert clusters == {0, 1}

    def test_live_out_extends_to_end(self, vliw1, chain_region):
        schedule = schedule_on(chain_region, vliw1)
        out_uid = chain_region.live_outs()[0]
        producer = chain_region.ddg.instruction(out_uid).operands[0]
        intervals = [iv for iv in live_intervals(chain_region, vliw1, schedule)
                     if iv.value == producer]
        assert max(iv.end for iv in intervals) == schedule.makespan

    def test_overlap_query(self, vliw1, dot_region):
        schedule = schedule_on(dot_region, vliw1)
        for iv in live_intervals(dot_region, vliw1, schedule):
            assert iv.overlaps(iv.start)
            assert iv.overlaps(iv.end)
            assert not iv.overlaps(iv.end + 1)


class TestPressure:
    def test_chain_pressure_is_low(self, vliw1, chain_region):
        schedule = schedule_on(chain_region, vliw1)
        profile = pressure_profile(chain_region, vliw1, schedule)
        assert profile.peak() <= 4

    def test_wide_region_pressure_is_higher(self, vliw1):
        wide = build_dot_region(n=16, banks=1)
        narrow = build_chain_region(length=8)
        wide_peak = pressure_profile(wide, vliw1, schedule_on(wide, vliw1)).peak()
        narrow_peak = pressure_profile(
            narrow, vliw1, schedule_on(narrow, vliw1)
        ).peak()
        assert wide_peak > narrow_peak

    def test_partitioning_reduces_per_cluster_pressure(self, vliw4):
        region = build_dot_region(n=16, banks=4)
        all_one = schedule_on(region, vliw4, cluster=0)
        peak_one = pressure_profile(region, vliw4, all_one).max_pressure[0]
        spread = {i: i % 4 for i in range(len(region.ddg))}
        spread_schedule = ListScheduler().schedule(region, vliw4, assignment=spread)
        spread_profile = pressure_profile(region, vliw4, spread_schedule)
        assert max(spread_profile.max_pressure.values()) <= peak_one


class TestLinearScan:
    def test_no_spills_with_ample_registers(self, vliw1, dot_region):
        schedule = schedule_on(dot_region, vliw1)
        result = allocate_registers(dot_region, vliw1, schedule)
        assert result.spill_count == 0

    def test_spills_appear_when_registers_scarce(self):
        tiny = ClusteredVLIW(1, registers=4)
        region = build_dot_region(n=16, banks=1)
        schedule = schedule_on(region, tiny)
        result = allocate_registers(region, tiny, schedule)
        assert result.spill_count > 0
        assert result.spill_cost_cycles > 0

    def test_assigned_registers_within_file(self, vliw1, dot_region):
        schedule = schedule_on(dot_region, vliw1)
        result = allocate_registers(dot_region, vliw1, schedule, reserved=2)
        for (_value, _cluster), reg in result.assignments.items():
            assert 0 <= reg < vliw1.clusters[0].registers - 2

    def test_no_two_overlapping_values_share_a_register(self, vliw1):
        region = build_dot_region(n=8, banks=1)
        schedule = schedule_on(region, vliw1)
        result = allocate_registers(region, vliw1, schedule)
        intervals = {
            (iv.value, iv.cluster): iv
            for iv in live_intervals(region, vliw1, schedule)
        }
        by_register = {}
        for key, reg in result.assignments.items():
            by_register.setdefault((key[1], reg), []).append(intervals[key])
        for (_cluster, _reg), ivs in by_register.items():
            ivs.sort(key=lambda iv: iv.start)
            for a, b in zip(ivs, ivs[1:]):
                assert a.end <= b.start or b.end <= a.start or a.end < b.start + 1

    def test_spill_adjusted_cycles_monotone(self, vliw1, dot_region):
        schedule = schedule_on(dot_region, vliw1)
        assert spill_adjusted_cycles(dot_region, vliw1, schedule) >= schedule.makespan

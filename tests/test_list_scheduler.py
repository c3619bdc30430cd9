"""Unit tests for the communication-aware list scheduler."""

import pytest

from repro.ir import RegionBuilder
from repro.ir.regions import Program
from repro.schedulers import ListScheduler, SchedulingError
from repro.schedulers.list_scheduler import effective_latency, feasible_clusters
from repro.sim import simulate
from repro.workloads import apply_congruence

from .conftest import build_chain_region


def all_on(cluster, region):
    return {i: cluster for i in range(len(region.ddg))}


class TestBasicScheduling:
    def test_chain_schedules_serially(self, vliw1):
        region = build_chain_region(length=4)
        sched = ListScheduler().schedule(region, vliw1, assignment=all_on(0, region))
        report = simulate(region, vliw1, sched)
        assert report.ok
        # Chain of 4 fadds at latency 4 plus the li: CPL bound.
        assert sched.makespan >= 16

    def test_all_instructions_scheduled(self, vliw4, dot_region):
        sched = ListScheduler().schedule(
            dot_region, vliw4, assignment=all_on(0, dot_region)
        )
        assert set(sched.ops) == set(range(len(dot_region.ddg)))

    def test_missing_assignment_raises(self, vliw4, dot_region):
        with pytest.raises(SchedulingError, match="no cluster assignment"):
            ListScheduler().schedule(dot_region, vliw4)

    def test_partial_assignment_raises(self, vliw4, dot_region):
        with pytest.raises(SchedulingError, match="missing instruction"):
            ListScheduler().schedule(dot_region, vliw4, assignment={0: 0})

    def test_infeasible_assignment_raises(self, raw4):
        b = RegionBuilder("r")
        x = b.load(bank=1, array="a")
        b.live_out(x)
        program = Program("p", [b.build()])
        apply_congruence(program, raw4)
        region = program.regions[0]
        with pytest.raises(SchedulingError, match="feasible"):
            ListScheduler().schedule(region, raw4, assignment=all_on(0, region))


class TestCommunication:
    def test_cross_cluster_data_inserts_transfer(self, vliw4):
        b = RegionBuilder("r")
        x = b.li(2.0)
        y = b.fadd(x, x)
        b.live_out(y)
        region = b.build()
        assignment = {x.uid: 0, y.uid: 1, 2: 1}
        sched = ListScheduler().schedule(region, vliw4, assignment=assignment)
        assert sched.comm_count() == 1
        (ev,) = sched.comms
        assert (ev.src, ev.dst) == (0, 1)
        assert ev.arrival == ev.issue + 1
        simulate(region, vliw4, sched)

    def test_transfer_reused_by_same_cluster_consumers(self, vliw4):
        b = RegionBuilder("r")
        x = b.li(2.0)
        y1 = b.fadd(x, x)
        y2 = b.fmul(x, x)
        b.live_out(y1)
        b.live_out(y2)
        region = b.build()
        assignment = {x.uid: 0, y1.uid: 1, y2.uid: 1, 3: 1, 4: 1}
        sched = ListScheduler().schedule(region, vliw4, assignment=assignment)
        # One value moved once, consumed twice.
        assert sched.comm_count() == 1
        simulate(region, vliw4, sched)

    def test_same_cluster_needs_no_transfer(self, vliw4, dot_region):
        sched = ListScheduler().schedule(
            dot_region, vliw4, assignment=all_on(2, dot_region)
        )
        assert sched.comm_count() == 0

    def test_raw_transfer_latency_includes_hops(self, raw16):
        b = RegionBuilder("r")
        x = b.li(1.0)
        y = b.fadd(x, x)
        b.live_out(y)
        region = b.build()
        assignment = {x.uid: 0, y.uid: 15, 2: 15}
        sched = ListScheduler().schedule(region, raw16, assignment=assignment)
        (ev,) = sched.comms
        assert ev.arrival - ev.issue == 8  # 2 + 6 hops
        simulate(region, raw16, sched)

    def test_vliw_transfer_contention_serializes(self, vliw4):
        # Two different values leaving cluster 0 in the same cycle must
        # share the single transfer unit.
        b = RegionBuilder("r")
        x = b.li(1.0)
        y = b.li(2.0)
        u = b.fadd(x, x)
        v = b.fadd(y, y)
        b.live_out(u)
        b.live_out(v)
        region = b.build()
        assignment = {x.uid: 0, y.uid: 0, u.uid: 1, v.uid: 2, 4: 1, 5: 2}
        sched = ListScheduler().schedule(region, vliw4, assignment=assignment)
        issues = sorted(ev.issue for ev in sched.comms)
        assert issues[0] != issues[1]
        simulate(region, vliw4, sched)


class TestResourcesAndLatency:
    def test_single_fpu_serializes_fp(self, vliw4):
        b = RegionBuilder("r")
        x = b.li(1.0)
        ops = [b.fmul(x, x) for _ in range(4)]
        for o in ops:
            b.live_out(o)
        region = b.build()
        sched = ListScheduler().schedule(region, vliw4, assignment=all_on(0, region))
        starts = sorted(sched.ops[o.uid].start for o in ops)
        assert len(set(starts)) == 4  # one FPU: distinct issue cycles
        simulate(region, vliw4, sched)

    def test_two_ialu_ops_can_coissue(self, vliw4):
        b = RegionBuilder("r")
        x = b.li(1)
        a1 = b.add(x, x)
        a2 = b.sub(x, x)
        b.live_out(a1)
        b.live_out(a2)
        region = b.build()
        sched = ListScheduler().schedule(region, vliw4, assignment=all_on(0, region))
        assert sched.ops[a1.uid].start == sched.ops[a2.uid].start
        simulate(region, vliw4, sched)

    def test_raw_single_issue(self, raw4):
        b = RegionBuilder("r")
        x = b.li(1)
        a1 = b.add(x, x)
        a2 = b.sub(x, x)
        b.live_out(a1)
        b.live_out(a2)
        region = b.build()
        sched = ListScheduler().schedule(region, raw4, assignment=all_on(0, region))
        assert sched.ops[a1.uid].start != sched.ops[a2.uid].start

    def test_remote_memory_penalty_on_vliw(self, vliw4):
        b = RegionBuilder("r")
        x = b.load(bank=3, array="a")
        b.live_out(x)
        region = b.build()
        inst = region.ddg.instruction(x.uid)
        assert effective_latency(inst, 3, vliw4) == 3
        assert effective_latency(inst, 0, vliw4) == 4

    def test_pseudo_ops_occupy_no_unit(self, vliw4, chain_region):
        sched = ListScheduler().schedule(
            chain_region, vliw4, assignment=all_on(0, chain_region)
        )
        for inst in chain_region.ddg:
            if inst.is_pseudo:
                assert sched.ops[inst.uid].unit == -1

    def test_priorities_steer_order(self, vliw4):
        # Two independent fmuls; give the second a much better priority.
        b = RegionBuilder("r")
        x = b.li(1.0)
        first = b.fmul(x, x)
        second = b.fmul(x, x)
        b.live_out(first)
        b.live_out(second)
        region = b.build()
        priorities = {first.uid: 10.0, second.uid: 0.0}
        sched = ListScheduler().schedule(
            region, vliw4, assignment=all_on(0, region), priorities=priorities
        )
        assert sched.ops[second.uid].start < sched.ops[first.uid].start


class TestFeasibleClusters:
    def test_preplaced_restricted_to_home(self, vliw4):
        b = RegionBuilder("r")
        x = b.live_in(home_cluster=2)
        b.live_out(x)
        region = b.build()
        inst = region.ddg.instruction(x.uid)
        assert feasible_clusters(inst, vliw4) == [2]

    def test_hard_affinity_restricts_memory(self, raw4):
        b = RegionBuilder("r")
        x = b.load(bank=3, array="a")
        b.live_out(x)
        region = b.build()
        inst = region.ddg.instruction(x.uid)
        assert feasible_clusters(inst, raw4) == [3]

    def test_soft_affinity_allows_any_cluster(self, vliw4):
        b = RegionBuilder("r")
        x = b.load(bank=3, array="a")
        b.live_out(x)
        region = b.build()
        inst = region.ddg.instruction(x.uid)
        assert feasible_clusters(inst, vliw4) == [0, 1, 2, 3]

    def test_fp_excluded_nowhere_on_vliw(self, vliw4, dot_region):
        for inst in dot_region.ddg:
            assert feasible_clusters(inst, vliw4) == [0, 1, 2, 3]

"""Unit tests for the baseline schedulers: UAS, PCC, Rawcc, single."""

import pytest

from repro.ir import RegionBuilder
from repro.ir.regions import Program
from repro.machine import RawMachine
from repro.schedulers import (
    ListScheduler,
    PartialComponentClustering,
    RawccScheduler,
    SchedulingError,
    SingleClusterScheduler,
    UnifiedAssignAndSchedule,
)
from repro.sim import simulate
from repro.workloads import apply_congruence, build_benchmark

from .conftest import build_chain_region, build_dot_region


class TestUAS:
    def test_produces_valid_schedule(self, vliw4, dot_region):
        sched = UnifiedAssignAndSchedule().schedule(dot_region, vliw4)
        assert simulate(dot_region, vliw4, sched).ok

    def test_uses_multiple_clusters_on_parallel_work(self, vliw4):
        region = build_dot_region(n=16, banks=4)
        sched = UnifiedAssignAndSchedule().schedule(region, vliw4)
        used = {op.cluster for op in sched.ops.values()}
        assert len(used) > 1

    def test_respects_preplacement(self, raw4, jacobi_raw):
        sched = UnifiedAssignAndSchedule().schedule(jacobi_raw, raw4)
        for inst in jacobi_raw.ddg:
            if inst.preplaced:
                assert sched.cluster_of(inst.uid) == inst.home_cluster
        assert simulate(jacobi_raw, raw4, sched).ok

    def test_beats_single_cluster_on_fat_graph(self, vliw4):
        region = build_dot_region(n=16, banks=4)
        uas = UnifiedAssignAndSchedule().schedule(region, vliw4)
        single = ListScheduler().schedule(
            region, vliw4, assignment={i: 0 for i in range(len(region.ddg))}
        )
        assert uas.makespan < single.makespan


class TestPCC:
    def test_components_are_a_partition(self, mxm_vliw):
        pcc = PartialComponentClustering(theta=6)
        comps = pcc.build_components(mxm_vliw.ddg)
        seen = [uid for c in comps for uid in c.members]
        assert sorted(seen) == list(range(len(mxm_vliw.ddg)))

    def test_component_size_capped(self, mxm_vliw):
        pcc = PartialComponentClustering(theta=5)
        comps = pcc.build_components(mxm_vliw.ddg)
        assert max(len(c.members) for c in comps) <= 5

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            PartialComponentClustering(theta=0)

    def test_preplaced_component_home(self, vliw4, mxm_vliw):
        pcc = PartialComponentClustering()
        assignment = pcc.assign(mxm_vliw.ddg, vliw4)
        # Assignment itself must be schedulable.
        sched = ListScheduler().schedule(mxm_vliw, vliw4, assignment=assignment)
        assert simulate(mxm_vliw, vliw4, sched).ok

    def test_valid_schedule_on_both_machines(self, vliw4, raw4):
        region = build_dot_region(n=8, banks=4)
        for machine in (vliw4, raw4):
            sched = PartialComponentClustering().schedule(region, machine)
            assert simulate(region, machine, sched).ok

    def test_descent_improves_or_matches_estimate(self, vliw4, mxm_vliw):
        pcc = PartialComponentClustering(max_sweeps=0)
        no_descent = pcc._estimate(
            mxm_vliw.ddg,
            [pcc.assign(mxm_vliw.ddg, vliw4)[i] for i in range(len(mxm_vliw.ddg))],
            vliw4,
        )
        pcc_full = PartialComponentClustering(max_sweeps=8)
        with_descent = pcc_full._estimate(
            mxm_vliw.ddg,
            [pcc_full.assign(mxm_vliw.ddg, vliw4)[i] for i in range(len(mxm_vliw.ddg))],
            vliw4,
        )
        assert with_descent <= no_descent + 1e-9


class TestRawcc:
    def test_valid_schedule(self, raw4, jacobi_raw):
        sched = RawccScheduler().schedule(jacobi_raw, raw4)
        assert simulate(jacobi_raw, raw4, sched).ok

    def test_clustering_groups_serial_chain(self, raw4):
        region = build_chain_region(length=8)
        rawcc = RawccScheduler()
        vcs = rawcc.cluster(region.ddg, raw4, comm_cost=3)
        sizes = sorted((len(vc.members) for vc in vcs if vc.members), reverse=True)
        # A pure chain should stay (almost) entirely in one cluster.
        assert sizes[0] >= len(region.ddg) - 2

    def test_merge_respects_cluster_budget(self, raw4, jacobi_raw):
        rawcc = RawccScheduler()
        vcs = rawcc.cluster(jacobi_raw.ddg, raw4, comm_cost=3)
        merged = rawcc.merge(vcs, jacobi_raw.ddg, raw4.n_clusters)
        # Never merges two distinct homes together.
        for vc in merged:
            members_homes = {
                jacobi_raw.ddg.instruction(u).home_cluster
                for u in vc.members
                if jacobi_raw.ddg.instruction(u).home_cluster is not None
            }
            assert len(members_homes) <= 1

    def test_placement_honours_homes(self, raw4, jacobi_raw):
        assignment = RawccScheduler().assign(jacobi_raw.ddg, raw4)
        for inst in jacobi_raw.ddg:
            if inst.preplaced:
                assert assignment[inst.uid] == inst.home_cluster

    def test_load_aware_clustering_avoids_collapse(self, raw16):
        program = build_benchmark("sha", raw16)
        region = program.regions[0]
        assignment = RawccScheduler().assign(region.ddg, raw16)
        from collections import Counter

        counts = Counter(assignment.values())
        # Without load awareness nearly half the graph lands on one tile;
        # with it, no tile exceeds a serial spine's worth of work.
        assert max(counts.values()) < len(region.ddg) // 2
        assert len(counts) >= raw16.n_clusters // 2


class TestSingleCluster:
    def test_everything_on_cluster_zero(self, vliw1, dot_region):
        sched = SingleClusterScheduler().schedule(dot_region, vliw1)
        assert all(op.cluster == 0 for op in sched.ops.values())
        assert sched.comm_count() == 0
        assert simulate(dot_region, vliw1, sched).ok

    def test_rejects_remote_preplacement(self, raw4):
        b = RegionBuilder("r")
        x = b.load(bank=1, array="a")
        b.live_out(x)
        program = Program("p", [b.build()])
        apply_congruence(program, raw4)
        with pytest.raises(SchedulingError, match="single-cluster"):
            SingleClusterScheduler().schedule(program.regions[0], raw4)

    def test_single_tile_raw_accepts_all_banks(self):
        raw1 = RawMachine(1, 1)
        program = build_benchmark("jacobi", raw1)
        sched = SingleClusterScheduler().schedule(program.regions[0], raw1)
        assert simulate(program.regions[0], raw1, sched).ok

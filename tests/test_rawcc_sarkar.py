"""Unit tests for the Sarkar edge-zeroing clustering mode of the
Rawcc-style baseline."""

import pytest

from repro.ir import RegionBuilder
from repro.machine import raw_with_tiles
from repro.schedulers import RawccScheduler
from repro.sim import simulate
from repro.workloads import build_benchmark

from .conftest import build_chain_region, build_dot_region


class TestParallelTime:
    def test_serial_chain_time(self, raw4):
        region = build_chain_region(length=4)
        ddg = region.ddg
        one_cluster = {uid: 0 for uid in range(len(ddg))}
        pt = RawccScheduler._parallel_time(ddg, one_cluster, raw4, comm_cost=3)
        # li + 4 chained fadds: bounded below by the latency chain.
        assert pt >= 1 + 4 * 4

    def test_cut_edges_pay_communication(self, raw4):
        b = RegionBuilder("r")
        x = b.li(1.0)
        y = b.fadd(x, x)
        b.live_out(y)
        region = b.build()
        same = RawccScheduler._parallel_time(
            region.ddg, {0: 0, 1: 0, 2: 0}, raw4, comm_cost=3
        )
        split = RawccScheduler._parallel_time(
            region.ddg, {0: 0, 1: 1, 2: 1}, raw4, comm_cost=3
        )
        assert split == same + 3

    def test_single_issue_serialization(self, raw4):
        region = build_dot_region(n=4, banks=1)
        ddg = region.ddg
        one = RawccScheduler._parallel_time(
            ddg, {u: 0 for u in range(len(ddg))}, raw4, comm_cost=3
        )
        spread = RawccScheduler._parallel_time(
            ddg, {u: u % 4 for u in range(len(ddg))}, raw4, comm_cost=0
        )
        # With free communication, spreading must not be slower.
        assert spread <= one


class TestSarkarClustering:
    def test_chain_stays_whole(self, raw4):
        region = build_chain_region(length=8)
        scheduler = RawccScheduler(clustering="sarkar")
        vcs = scheduler.cluster_sarkar(region.ddg, raw4, comm_cost=3)
        sizes = sorted((vc.size() for vc in vcs if vc.members), reverse=True)
        assert sizes[0] >= len(region.ddg) - 2

    def test_members_partition_graph(self, raw4, jacobi_raw):
        scheduler = RawccScheduler(clustering="sarkar")
        vcs = scheduler.cluster_sarkar(jacobi_raw.ddg, raw4, comm_cost=3)
        members = sorted(u for vc in vcs for u in vc.members)
        assert members == list(range(len(jacobi_raw.ddg)))

    def test_conflicting_homes_never_merge(self, raw4, jacobi_raw):
        scheduler = RawccScheduler(clustering="sarkar")
        vcs = scheduler.cluster_sarkar(jacobi_raw.ddg, raw4, comm_cost=3)
        for vc in vcs:
            homes = {
                jacobi_raw.ddg.instruction(u).home_cluster
                for u in vc.members
                if jacobi_raw.ddg.instruction(u).home_cluster is not None
            }
            assert len(homes) <= 1

    def test_valid_schedule_end_to_end(self, raw4, jacobi_raw):
        schedule = RawccScheduler(clustering="sarkar").schedule(jacobi_raw, raw4)
        assert simulate(jacobi_raw, raw4, schedule).ok

    def test_not_worse_than_dsc_on_integer_code(self):
        machine = raw_with_tiles(16)
        region = build_benchmark("sha", machine).regions[0]
        dsc = RawccScheduler(clustering="dsc").schedule(region, machine)
        sarkar = RawccScheduler(clustering="sarkar").schedule(region, machine)
        assert sarkar.makespan <= dsc.makespan

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            RawccScheduler(clustering="magic")

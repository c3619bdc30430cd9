"""Integration tests: every benchmark x scheduler x machine combination
produces a simulator-verified schedule with correct dataflow.
"""

import pytest

from repro.core import ConvergentScheduler
from repro.machine import ClusteredVLIW, RawMachine, raw_with_tiles
from repro.schedulers import (
    PartialComponentClustering,
    RawccScheduler,
    SingleClusterScheduler,
    UnifiedAssignAndSchedule,
)
from repro.sim import simulate
from repro.workloads import RAW_SUITE, VLIW_SUITE, build_benchmark

SCHEDULERS = {
    "convergent": ConvergentScheduler,
    "uas": UnifiedAssignAndSchedule,
    "pcc": PartialComponentClustering,
    "rawcc": RawccScheduler,
}


@pytest.mark.parametrize("bench_name", VLIW_SUITE)
@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
def test_vliw_suite_verified(bench_name, scheduler_name):
    machine = ClusteredVLIW(4)
    program = build_benchmark(bench_name, machine)
    scheduler = SCHEDULERS[scheduler_name]()
    for region in program.regions:
        schedule = scheduler.schedule(region, machine)
        report = simulate(region, machine, schedule)
        assert report.ok
        assert report.values_checked == len(region.ddg)


@pytest.mark.parametrize("bench_name", RAW_SUITE)
@pytest.mark.parametrize("scheduler_name", ["convergent", "rawcc"])
def test_raw_suite_verified(bench_name, scheduler_name):
    machine = RawMachine(2, 2)
    program = build_benchmark(bench_name, machine)
    scheduler = SCHEDULERS[scheduler_name]()
    for region in program.regions:
        schedule = scheduler.schedule(region, machine)
        report = simulate(region, machine, schedule)
        assert report.ok


@pytest.mark.parametrize("tiles", [1, 2, 4, 8, 16])
def test_mesh_sizes_all_work(tiles):
    machine = raw_with_tiles(tiles)
    program = build_benchmark("jacobi", machine)
    scheduler = (
        SingleClusterScheduler() if tiles == 1 else ConvergentScheduler()
    )
    schedule = scheduler.schedule(program.regions[0], machine)
    assert simulate(program.regions[0], machine, schedule).ok


def test_partitioning_beats_single_cluster_on_dense_code():
    """The paper's core premise: spatial scheduling pays off on fat
    graphs."""
    parallel_machine = ClusteredVLIW(4)
    single_machine = ClusteredVLIW(1)
    program4 = build_benchmark("mxm", parallel_machine)
    program1 = build_benchmark("mxm", single_machine)
    sched4 = ConvergentScheduler().schedule(program4.regions[0], parallel_machine)
    sched1 = SingleClusterScheduler().schedule(program1.regions[0], single_machine)
    assert sched4.makespan < sched1.makespan


def test_convergent_beats_rawcc_on_preplacement_rich_code():
    """Table 2's headline: preplacement information guides convergent
    scheduling to better partitions on dense-matrix code."""
    machine = raw_with_tiles(16)
    wins = 0
    for benchmark in ("mxm", "swim", "vpenta"):
        program = build_benchmark(benchmark, machine)
        conv = ConvergentScheduler().schedule(program.regions[0], machine)
        rawcc = RawccScheduler().schedule(program.regions[0], machine)
        if conv.makespan <= rawcc.makespan:
            wins += 1
    assert wins >= 2


def test_every_schedule_honours_preplacement():
    machine = raw_with_tiles(4)
    program = build_benchmark("life", machine)
    region = program.regions[0]
    for scheduler_name, factory in SCHEDULERS.items():
        schedule = factory().schedule(region, machine)
        for inst in region.ddg:
            if inst.preplaced:
                assert schedule.cluster_of(inst.uid) == inst.home_cluster, scheduler_name


@pytest.mark.parametrize("bench_name", ["mxm", "jacobi"])
def test_static_and_dynamic_timing_agree(bench_name):
    """Independent cross-check: a cycle-driven replay of every schedule
    derives the same timing the static model promised."""
    from repro.sim import crosscheck

    machine = raw_with_tiles(4)
    program = build_benchmark(bench_name, machine)
    for scheduler_name, factory in SCHEDULERS.items():
        for region in program.regions:
            schedule = factory().schedule(region, machine)
            crosscheck(region, machine, schedule)

"""Ablation benches for the design choices called out in DESIGN.md.

Not a paper table — these quantify the contributions of individual
passes and parameters on this substrate:

* drop-a-pass: the tuned VLIW sequence minus LOAD, LEVEL, NOISE, or
  PLACEPROP;
* NOISE seed sensitivity: schedule quality spread across seeds;
* graph-shape sensitivity (Figure 2): scheduling thin vs fat graphs.
"""

import pytest

from repro.core import ConvergentScheduler, TUNED_VLIW_SEQUENCE
from repro.harness import arithmetic_mean, format_table, vliw_speedups
from repro.machine import ClusteredVLIW
from repro.schedulers import UnifiedAssignAndSchedule
from repro.sim import simulate
from repro.workloads import apply_congruence, fat_graph, thin_graph

from .conftest import print_report

ABLATIONS = ("LOAD", "LEVEL", "NOISE", "PLACEPROP")
SUBSET = ("vvmul", "tomcatv", "mxm", "fir", "cholesky")


def sequence_without(pass_name):
    return [spec for spec in TUNED_VLIW_SEQUENCE if not spec.startswith(pass_name)]


@pytest.fixture(scope="module")
def ablation_means():
    means = {}
    full = vliw_speedups(benchmarks=SUBSET, check_values=False)
    means["full"] = arithmetic_mean(
        [full.speedups[b]["convergent"][4] for b in SUBSET]
    )
    for dropped in ABLATIONS:
        table = vliw_speedups(
            benchmarks=SUBSET,
            schedulers={
                "convergent": ConvergentScheduler(passes=sequence_without(dropped))
            },
            check_values=False,
        )
        means[f"-{dropped}"] = arithmetic_mean(
            [table.speedups[b]["convergent"][4] for b in SUBSET]
        )
    return means


def test_drop_a_pass_report(ablation_means):
    rows = [[name, value] for name, value in ablation_means.items()]
    print_report(
        "Ablation: tuned VLIW sequence, drop one pass (mean speedup, 4 clusters)",
        format_table(["sequence", "mean speedup"], rows),
    )
    assert ablation_means["full"] > 1.0


def test_load_balancing_is_essential(ablation_means):
    """Without LOAD the sequence collapses onto few clusters."""
    assert ablation_means["full"] >= ablation_means["-LOAD"] - 0.05


def test_no_single_ablation_beats_full_sequence_badly(ablation_means):
    for name, value in ablation_means.items():
        assert ablation_means["full"] >= value - 0.35, name


def test_noise_seed_sensitivity():
    machine = ClusteredVLIW(4)
    from repro.workloads import build_benchmark

    cycles = []
    for seed in range(5):
        region = build_benchmark("mxm", machine).regions[0]
        schedule = ConvergentScheduler(seed=seed).schedule(region, machine)
        simulate(region, machine, schedule, check_values=False)
        cycles.append(schedule.makespan)
    spread = max(cycles) / min(cycles)
    print_report(
        "Ablation: NOISE seed sensitivity (mxm, vliw4)",
        f"cycles per seed: {cycles}  (max/min = {spread:.2f})",
    )
    assert spread < 1.4


def test_graph_shape_sensitivity(benchmark):
    """Figure 2's dichotomy: fat graphs gain from clustering, thin ones
    cannot; both must schedule validly."""
    machine = ClusteredVLIW(4)
    results = {}
    for program in (thin_graph(240), fat_graph(240)):
        apply_congruence(program, machine)
        region = program.regions[0]
        conv = ConvergentScheduler().schedule(region, machine)
        uas = UnifiedAssignAndSchedule().schedule(region, machine)
        simulate(region, machine, conv, check_values=False)
        simulate(region, machine, uas, check_values=False)
        results[program.name] = (conv.makespan, uas.makespan)
    print_report(
        "Ablation: thin vs fat graphs (makespan: convergent, uas)",
        "\n".join(f"  {k}: {v}" for k, v in results.items()),
    )
    # Fat graphs should finish much faster per instruction than thin ones.
    thin_conv = results["thin240"][0]
    fat_conv = results["fat240"][0]
    assert fat_conv < thin_conv

    def run():
        return fat_graph(240).regions[0]

    benchmark(run)

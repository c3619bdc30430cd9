"""Speedup experiments: Table 2, Figure 6, and Figure 8.

Speedup is defined exactly as in the paper: cycles on a single
cluster/tile divided by cycles on the parallel machine, for the same
unrolled program.  The single-cluster run uses a 1-cluster machine of
the same family (congruence then maps every bank to that cluster).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..machine.machine import Machine
from ..machine.raw import raw_with_tiles
from ..machine.vliw import ClusteredVLIW
from ..schedulers.base import Scheduler
from ..verify import make_scheduler
from ..workloads.suite import (
    BASELINE_SCHEDULER,
    RAW_SUITE,
    VLIW_SUITE,
    baseline_machine,
    build_benchmark,
    schedulers_for_machine,
)
from .experiment import run_program
from .reporting import arithmetic_mean, format_table


@dataclass
class SpeedupTable:
    """Speedups indexed by benchmark, scheduler, and machine size."""

    sizes: Sequence[int]
    #: speedups[benchmark][scheduler][size] = speedup over 1 cluster.
    speedups: Dict[str, Dict[str, Dict[int, float]]] = field(default_factory=dict)
    #: baseline_cycles[benchmark] = verified single-cluster cycles.
    baseline_cycles: Dict[str, int] = field(default_factory=dict)

    def mean_speedup(self, scheduler: str, size: int) -> float:
        """Arithmetic-mean speedup of a scheduler at one machine size.

        Args:
            scheduler: Scheduler name as recorded in :attr:`speedups`.
            size: Machine size (tiles or clusters) to average over.

        Returns:
            The mean over benchmarks that ran with that scheduler.
        """
        return arithmetic_mean(
            [bench[scheduler][size] for bench in self.speedups.values() if scheduler in bench]
        )

    def improvement(self, scheduler: str, over: str, size: int) -> float:
        """Mean per-benchmark ratio of ``scheduler`` over ``over``.

        The paper's "21% improvement" metric.

        Args:
            scheduler: Scheduler whose improvement is measured.
            over: Baseline scheduler name.
            size: Machine size (tiles or clusters) to compare at.

        Returns:
            Mean of per-benchmark speedup ratios minus one (0.0 when no
            benchmark ran under both schedulers).
        """
        ratios = [
            bench[scheduler][size] / bench[over][size]
            for bench in self.speedups.values()
            if scheduler in bench and over in bench and bench[over][size] > 0
        ]
        return arithmetic_mean(ratios) - 1.0 if ratios else 0.0

    def render(self, title: str = "") -> str:
        """Aligned table: one row per benchmark, sizes x schedulers."""
        schedulers: List[str] = []
        for bench in self.speedups.values():
            for s in bench:
                if s not in schedulers:
                    schedulers.append(s)
        headers = ["benchmark"] + [
            f"{s}/{n}" for s in schedulers for n in self.sizes
        ]
        rows = []
        for name, bench in self.speedups.items():
            row: List[object] = [name]
            for s in schedulers:
                for n in self.sizes:
                    row.append(bench.get(s, {}).get(n, float("nan")))
            rows.append(row)
        return format_table(headers, rows, title=title)


def _speedup_table(
    benchmarks: Sequence[str],
    machines: Sequence[Machine],
    schedulers: Optional[Mapping[str, Scheduler]],
    check_values: bool,
) -> SpeedupTable:
    """Speedups on machines of one family, indexed by cluster count.

    The denominator is the baseline scheduler on the family's baseline
    machine; ``schedulers=None`` runs the family's paper line-up (both
    from :mod:`repro.workloads.suite`).
    """
    if schedulers is None:
        schedulers = {
            name: make_scheduler(name) for name in schedulers_for_machine(machines[0])
        }
    table = SpeedupTable(sizes=tuple(m.n_clusters for m in machines))
    one = baseline_machine(machines[0])
    single = make_scheduler(BASELINE_SCHEDULER)
    for name in benchmarks:
        base = run_program(
            build_benchmark(name, one), one, single, check_values=check_values
        )
        table.baseline_cycles[name] = base.cycles
        table.speedups[name] = {}
        for sched_name, scheduler in schedulers.items():
            table.speedups[name][sched_name] = {}
            for machine in machines:
                result = run_program(
                    build_benchmark(name, machine),
                    machine,
                    scheduler,
                    check_values=check_values,
                )
                table.speedups[name][sched_name][machine.n_clusters] = (
                    base.cycles / result.cycles if result.cycles else float("inf")
                )
    return table


def raw_speedups(
    benchmarks: Sequence[str] = RAW_SUITE,
    sizes: Sequence[int] = (2, 4, 8, 16),
    schedulers: Optional[Mapping[str, Scheduler]] = None,
    check_values: bool = True,
) -> SpeedupTable:
    """Reproduce Table 2: Rawcc baseline vs convergent scheduling on Raw.

    Every benchmark is scheduled on 1 tile (denominator) and on each
    mesh size with each scheduler; speedups are relative to the 1-tile
    run of the same program.

    Args:
        benchmarks: Benchmark names from the Raw suite.
        sizes: Mesh sizes (tile counts) to sweep.
        schedulers: ``{name: scheduler}``; ``None`` selects the Raw
            line-up (rawcc, convergent).
        check_values: Verify simulated register values against the
            reference interpreter.

    Returns:
        The populated :class:`SpeedupTable`.
    """
    machines = [raw_with_tiles(n) for n in sizes]
    return _speedup_table(benchmarks, machines, schedulers, check_values)


def vliw_speedups(
    benchmarks: Sequence[str] = VLIW_SUITE,
    n_clusters: int = 4,
    schedulers: Optional[Mapping[str, Scheduler]] = None,
    check_values: bool = True,
) -> SpeedupTable:
    """Reproduce Figure 8: PCC vs UAS vs convergent on a clustered VLIW.

    Speedup is relative to a single-cluster machine of the same family.

    Args:
        benchmarks: Benchmark names from the VLIW suite.
        n_clusters: Cluster count of the target machine.
        schedulers: ``{name: scheduler}``; ``None`` selects the paper's
            trio (pcc, uas, convergent).
        check_values: Verify simulated register values against the
            reference interpreter.

    Returns:
        The populated :class:`SpeedupTable`.
    """
    machine = ClusteredVLIW(n_clusters)
    return _speedup_table(benchmarks, [machine], schedulers, check_values)

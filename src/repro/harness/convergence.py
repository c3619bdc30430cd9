"""Convergence experiments: Figures 7 and 9.

For each benchmark, runs the convergent scheduler with tracing enabled
and reports the fraction of instructions whose preferred cluster changed
after each spatially active pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..core.convergent import ConvergentScheduler
from ..machine.machine import Machine
from ..workloads.suite import build_benchmark


@dataclass
class ConvergenceStudy:
    """Per-benchmark convergence series over one pass sequence."""

    machine_name: str
    pass_names: List[str] = field(default_factory=list)
    #: series[benchmark] = changed fraction after each spatial pass.
    series: Dict[str, List[float]] = field(default_factory=dict)

    def render(self, title: str = "") -> str:
        """Per-benchmark churn table, one column per spatial pass."""
        lines = [title or f"convergence on {self.machine_name}"]
        header = "benchmark".ljust(14) + "  " + "  ".join(
            name[:9].ljust(9) for name in self.pass_names
        )
        lines.append(header)
        for bench, values in self.series.items():
            cells = "  ".join(f"{v:8.2%} " for v in values)
            lines.append(f"{bench.ljust(14)}  {cells}")
        return "\n".join(lines)


def convergence_study(
    machine: Machine,
    benchmarks: Sequence[str],
    seed: int = 0,
) -> ConvergenceStudy:
    """Run the tuned pass sequence over ``benchmarks``, tracing the
    preferred-cluster churn after every spatially active pass.

    Args:
        machine: The target machine model.
        benchmarks: Benchmark names to build and converge.
        seed: RNG seed forwarded to every scheduler.

    Returns:
        A :class:`ConvergenceStudy` with one churn series per benchmark.
    """
    study = ConvergenceStudy(machine_name=machine.name)
    for name in benchmarks:
        program = build_benchmark(name, machine)
        scheduler = ConvergentScheduler(seed=seed)
        result = scheduler.converge(program.regions[0], machine)
        records = result.trace.spatial_records()
        if not study.pass_names:
            study.pass_names = [r.pass_name for r in records]
        study.series[name] = [r.changed_fraction for r in records]
    return study

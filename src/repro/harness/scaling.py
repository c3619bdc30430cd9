"""Compile-time scalability: Figure 10.

Times each assignment/scheduling algorithm on synthetic layered graphs
of growing size (50 to ~2000 instructions in the paper) on the clustered
VLIW model.  Absolute seconds are meaningless across eras; the *shape*
is the result: UAS and convergent scheduling track each other and scale
near-linearly, while PCC's iterative descent grows much faster.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..machine.vliw import ClusteredVLIW
from ..schedulers.base import Scheduler
from ..verify import make_scheduler
from ..workloads.congruence import apply_congruence
from ..workloads.suite import schedulers_for_machine
from ..workloads.synthetic import layered_graph


@dataclass
class ScalingResult:
    """Wall-clock compile time per (scheduler, graph size)."""

    sizes: Sequence[int]
    #: seconds[scheduler][size] = scheduling wall time.
    seconds: Dict[str, Dict[int, float]] = field(default_factory=dict)

    def growth_factor(self, scheduler: str) -> float:
        """time(largest) / time(smallest), the scalability figure of
        merit."""
        times = self.seconds[scheduler]
        smallest, largest = min(times), max(times)
        if times[smallest] <= 0:
            return float("inf")
        return times[largest] / times[smallest]

    def render(self, title: str = "Figure 10: compile time (seconds)") -> str:
        """Seconds-per-scheduler table, one row per graph size."""
        lines = [title]
        header = "instrs".ljust(8) + "".join(s.rjust(14) for s in self.seconds)
        lines.append(header)
        for size in self.sizes:
            row = f"{size:<8d}" + "".join(
                f"{self.seconds[s][size]:14.4f}" for s in self.seconds
            )
            lines.append(row)
        return "\n".join(lines)


def compile_time_scaling(
    sizes: Sequence[int] = (50, 100, 200, 400, 800, 1600),
    schedulers: Optional[Dict[str, Scheduler]] = None,
    n_clusters: int = 4,
    width: int = 12,
    seed: int = 0,
) -> ScalingResult:
    """Time each scheduler over layered graphs of the given sizes.

    Scheduling only is timed — simulation/validation is excluded, as the
    paper measures assignment + list scheduling.

    Args:
        sizes: Synthetic graph sizes (instruction counts) to sweep.
        schedulers: ``{name: scheduler}`` to time; ``None`` selects the
            paper's trio (pcc, uas, convergent).
        n_clusters: Clusters on the synthetic VLIW target.
        width: Layer width of the generated graphs.
        seed: RNG seed for graph generation.

    Returns:
        A :class:`ScalingResult` mapping scheduler name to
        seconds-per-size.
    """
    machine = ClusteredVLIW(n_clusters)
    if schedulers is None:
        schedulers = {
            name: make_scheduler(name) for name in schedulers_for_machine(machine)
        }
    result = ScalingResult(sizes=tuple(sizes))
    for name in schedulers:
        result.seconds[name] = {}
    for size in sizes:
        program = apply_congruence(
            layered_graph(size, width=width, seed=seed), machine
        )
        region = program.regions[0]
        for name, scheduler in schedulers.items():
            started = time.perf_counter()
            scheduler.schedule(region, machine)
            result.seconds[name][size] = time.perf_counter() - started
    return result

"""Bottleneck attribution for space-time schedules.

Given a verified schedule, decompose its makespan against the three
classic lower bounds and report which constraint binds:

* **critical path** — the latency-weighted dependence chain (no machine
  could beat this);
* **issue bound** — the busiest cluster's work divided by its issue
  width (load imbalance shows up here);
* **network bound** — the busiest communication resource's occupancy.

The residual between the makespan and the max of the bounds is
*scheduling slack*: time lost to resource fragmentation and operand
waiting that a better assignment or priority order might recover.  The
tradeoff example (Figure 1) is exactly a fight between the first two
bounds; this module makes that fight measurable on real kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..ir.regions import Region
from ..machine.machine import Machine
from ..schedulers.schedule import Schedule


@dataclass(frozen=True)
class BottleneckReport:
    """Makespan decomposition for one schedule.

    Attributes:
        makespan: The schedule's length, in cycles.
        critical_path_bound: Latency-weighted CPL of the graph.
        issue_bound: Busiest cluster's instruction count / issue width.
        network_bound: Busiest communication resource's busy cycles.
        binding: Which bound is largest ("critical-path", "issue",
            or "network").
        slack: ``makespan - max(bounds)`` — cycles no lower bound
            explains.
    """

    makespan: int
    critical_path_bound: int
    issue_bound: float
    network_bound: int
    binding: str
    slack: float

    def efficiency(self) -> float:
        """max(bounds) / makespan — 1.0 means the schedule is provably
        optimal against these bounds."""
        if self.makespan == 0:
            return 1.0
        return max(
            self.critical_path_bound, self.issue_bound, self.network_bound
        ) / self.makespan

    def render(self) -> str:
        """One-paragraph summary."""
        return (
            f"makespan {self.makespan} | critical path {self.critical_path_bound}, "
            f"issue {self.issue_bound:.1f}, network {self.network_bound} "
            f"-> bound by {self.binding}; slack {self.slack:.1f} cycles "
            f"({self.efficiency():.0%} of a matching lower bound)"
        )


def analyze_bottleneck(
    region: Region, machine: Machine, schedule: Schedule
) -> BottleneckReport:
    """Decompose ``schedule``'s makespan into binding constraints."""
    ddg = region.ddg
    cpl = ddg.critical_path_length()

    loads: Dict[int, int] = {c: 0 for c in range(machine.n_clusters)}
    for op in schedule.ops.values():
        if not ddg.instruction(op.uid).is_pseudo:
            loads[op.cluster] += 1
    issue_bound = 0.0
    for cluster_index, count in loads.items():
        width = max(1, machine.clusters[cluster_index].issue_width)
        issue_bound = max(issue_bound, count / width)

    network: Dict[object, int] = {}
    for ev in schedule.comms:
        for resource in ev.resources:
            network[resource] = network.get(resource, 0) + 1
    network_bound = max(network.values(), default=0)

    bounds = {
        "critical-path": float(cpl),
        "issue": issue_bound,
        "network": float(network_bound),
    }
    binding = max(bounds, key=lambda k: (bounds[k], k))
    slack = schedule.makespan - max(bounds.values())
    return BottleneckReport(
        makespan=schedule.makespan,
        critical_path_bound=cpl,
        issue_bound=issue_bound,
        network_bound=network_bound,
        binding=binding,
        slack=slack,
    )

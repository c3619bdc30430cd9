"""Space-time schedules.

A :class:`Schedule` is the output of every scheduler in this repository:
for each instruction, the cluster it runs on and the cycle it issues at,
plus the communication events (VLIW transfer-unit copies or Raw
static-network routes) that move values between clusters.  The simulator
(:mod:`repro.sim`) replays a schedule against the machine model and the
dependence graph to verify it and to produce the cycle counts reported
by the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..machine.machine import CommResource


@dataclass(frozen=True)
class ScheduledOp:
    """One instruction's placement in space and time.

    Attributes:
        uid: Instruction uid.
        cluster: Cluster/tile index the instruction executes on.
        unit: Index of the functional unit within the cluster (``-1``
            for pseudo-ops that occupy no unit).
        start: Issue cycle.
        latency: Cycles until the result is available (``finish ==
            start + latency``).
    """

    uid: int
    cluster: int
    unit: int
    start: int
    latency: int

    @property
    def finish(self) -> int:
        """First cycle at which the result can be consumed locally."""
        return self.start + self.latency


@dataclass(frozen=True)
class CommEvent:
    """One value transfer between clusters.

    Attributes:
        producer_uid: Instruction whose value is moved.
        src: Source cluster.
        dst: Destination cluster.
        issue: Cycle the transfer starts (>= producer finish).
        arrival: Cycle the value becomes usable on ``dst``.
        resources: The physical resources occupied; resource ``k`` is
            busy at cycle ``issue + k``.
    """

    producer_uid: int
    src: int
    dst: int
    issue: int
    arrival: int
    resources: Tuple[CommResource, ...] = ()


@dataclass
class Schedule:
    """A complete space-time schedule for one region.

    Attributes:
        region_name: Name of the region this schedules.
        machine_name: Name of the target machine.
        ops: Placement of every instruction, keyed by uid.
        comms: All communication events, in issue order.
        scheduler_name: Which algorithm produced the schedule.
    """

    region_name: str
    machine_name: str
    ops: Dict[int, ScheduledOp] = field(default_factory=dict)
    comms: List[CommEvent] = field(default_factory=list)
    scheduler_name: str = ""

    def add_op(self, op: ScheduledOp) -> None:
        """Record an instruction placement (each uid exactly once)."""
        if op.uid in self.ops:
            raise ValueError(f"instruction {op.uid} scheduled twice")
        self.ops[op.uid] = op

    def add_comm(self, event: CommEvent) -> None:
        """Record a communication event."""
        self.comms.append(event)

    @property
    def makespan(self) -> int:
        """Total schedule length in cycles.

        The cycle after the last result (local or transferred) becomes
        available; an empty schedule has makespan 0.
        """
        last = 0
        for op in self.ops.values():
            last = max(last, op.finish)
        for ev in self.comms:
            last = max(last, ev.arrival)
        return last

    def assignment(self) -> Dict[int, int]:
        """Map of instruction uid to cluster."""
        return {uid: op.cluster for uid, op in self.ops.items()}

    def cluster_of(self, uid: int) -> int:
        """Cluster the instruction with ``uid`` runs on."""
        return self.ops[uid].cluster

    def ops_on_cluster(self, cluster: int) -> List[ScheduledOp]:
        """Ops on ``cluster``, ordered by start cycle."""
        return sorted(
            (op for op in self.ops.values() if op.cluster == cluster),
            key=lambda op: (op.start, op.uid),
        )

    def comm_count(self) -> int:
        """Number of inter-cluster transfers."""
        return len(self.comms)

    def cluster_loads(self, n_clusters: int) -> List[int]:
        """Instruction count per cluster."""
        loads = [0] * n_clusters
        for op in self.ops.values():
            loads[op.cluster] += 1
        return loads

    def arrival_of(self, producer_uid: int, cluster: int) -> Optional[int]:
        """Cycle the producer's value is usable on ``cluster``.

        Local availability is the producer's finish; remote availability
        is the earliest matching transfer arrival, or ``None`` if the
        value never reaches ``cluster``.
        """
        op = self.ops.get(producer_uid)
        if op is None:
            return None
        if op.cluster == cluster:
            return op.finish
        arrivals = [
            ev.arrival
            for ev in self.comms
            if ev.producer_uid == producer_uid and ev.dst == cluster
        ]
        return min(arrivals) if arrivals else None

    def render(self, n_clusters: int, max_cycles: int = 64) -> str:
        """ASCII timeline: one column per cluster, one row per cycle."""
        by_slot: Dict[Tuple[int, int], List[int]] = {}
        for op in self.ops.values():
            by_slot.setdefault((op.start, op.cluster), []).append(op.uid)
        span = min(self.makespan, max_cycles)
        width = 12
        header = "cycle | " + " | ".join(f"c{c}".ljust(width) for c in range(n_clusters))
        lines = [header, "-" * len(header)]
        for t in range(span):
            cells = []
            for c in range(n_clusters):
                uids = by_slot.get((t, c), [])
                cells.append(",".join(str(u) for u in uids).ljust(width))
            lines.append(f"{t:5d} | " + " | ".join(cells))
        if self.makespan > max_cycles:
            lines.append(f"... ({self.makespan - max_cycles} more cycles)")
        return "\n".join(lines)

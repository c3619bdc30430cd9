"""Communication-aware list scheduling.

The workhorse that turns a cluster assignment plus instruction priorities
into a legal space-time schedule.  It is shared by every algorithm in
this repository:

* the **convergent scheduler** feeds it the preferred clusters and uses
  preferred times as priorities (the Chorus flow in the paper);
* **UAS** runs it with on-the-fly cluster selection
  (``assignment=None``), which is exactly "unified assign and schedule";
* **PCC** and the **Rawcc-style** baseline feed it their own partitions.

The scheduler is operation-driven: it repeatedly takes the
highest-priority ready instruction, lazily schedules any inter-cluster
transfers its operands need (reserving transfer units / network links in
the shared :class:`~repro.schedulers.resources.ReservationTable`), finds
the earliest cycle with a free functional unit, and books it.  Because
the reservation table permits hole-filling, a late-picked instruction may
still slot into an earlier empty cycle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..ir.ddg import DataDependenceGraph
from ..ir.instruction import Instruction
from ..ir.regions import Region
from ..machine.machine import Machine
from .resources import ReservationTable
from .schedule import CommEvent, Schedule, ScheduledOp


class SchedulingError(RuntimeError):
    """Raised when a region cannot be legally scheduled on a machine."""


def feasible_clusters(inst: Instruction, machine: Machine) -> List[int]:
    """Clusters on which ``inst`` may legally execute.

    Honors hard preplacement (``home_cluster``), hard memory-bank
    affinity on machines like Raw where a load *must* run on its bank's
    tile, and otherwise functional-unit availability as the machine's
    feasibility table (:attr:`~repro.machine.machine.Machine.class_clusters`)
    records it.
    """
    return list(legal_clusters(inst, machine))


def legal_clusters(inst: Instruction, machine: Machine) -> Tuple[int, ...]:
    """:func:`feasible_clusters` as a tuple, without building a list.

    The feasibility table's own tuple is returned when no pin applies,
    so a hot loop that only tests membership copies nothing.

    Args:
        inst: The instruction to place.
        machine: The target machine model.

    Returns:
        The legal cluster indices, in ascending order.
    """
    if inst.home_cluster is not None:
        return (inst.home_cluster,)
    if inst.is_memory and inst.bank is not None and machine.memory_affinity == "hard":
        return (machine.bank_home(inst.bank),)
    return machine.class_clusters[inst.func_class]


def effective_latency(inst: Instruction, cluster: int, machine: Machine) -> int:
    """Result latency of ``inst`` on ``cluster``, including the remote
    memory-bank penalty on soft-affinity machines (Chorus)."""
    latency = machine.latency(inst.opcode)
    if (
        inst.is_memory
        and inst.bank is not None
        and machine.memory_affinity == "soft"
        and machine.bank_home(inst.bank) != cluster
    ):
        latency += machine.remote_mem_penalty
    return latency


@dataclass
class _State:
    """Mutable scheduling state shared by the helper methods."""

    table: ReservationTable
    schedule: Schedule
    start: Dict[int, int]
    finish: Dict[int, int]
    cluster: Dict[int, int]
    arrivals: Dict[Tuple[int, int], int]  # (producer uid, cluster) -> cycle


class ListScheduler:
    """Cluster-aware list scheduler.

    Args:
        name: Label recorded on produced schedules.
        choose_clusters: When True and no assignment is supplied, pick
            each instruction's cluster greedily by earliest completion
            (the UAS behaviour).
    """

    def __init__(self, name: str = "list", choose_clusters: bool = False) -> None:
        self.name = name
        self.choose_clusters = choose_clusters

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def schedule(
        self,
        region: Region,
        machine: Machine,
        assignment: Optional[Mapping[int, int]] = None,
        priorities: Optional[Mapping[int, float]] = None,
    ) -> Schedule:
        """Produce a legal schedule for ``region`` on ``machine``.

        Args:
            region: The scheduling unit.
            assignment: Map uid -> cluster.  Required unless the scheduler
                was built with ``choose_clusters=True``.
            priorities: Map uid -> priority; *lower values schedule
                first*.  Defaults to negated tail length (critical-path
                list scheduling).

        Raises:
            SchedulingError: If an assignment violates a hard constraint.
        """
        ddg = region.ddg
        if assignment is None and not self.choose_clusters:
            raise SchedulingError(f"{self.name}: no cluster assignment supplied")
        tail = ddg.tail_length()
        if priorities is None:
            priorities = {i: -tail[i] for i in range(len(ddg))}

        state = _State(
            table=ReservationTable(),
            schedule=Schedule(
                region_name=region.name,
                machine_name=machine.name,
                scheduler_name=self.name,
            ),
            start={},
            finish={},
            cluster={},
            arrivals={},
        )

        instructions = ddg.instructions
        unscheduled_preds = [len(ddg.predecessors(i)) for i in range(len(ddg))]

        def sort_key(uid: int) -> Tuple[float, int, int]:
            return (priorities.get(uid, 0.0), -tail[uid], uid)

        # The key is unique through ``uid``, so the heap pops exactly the
        # order a full sort of the ready list would.
        ready = [sort_key(i) for i, n in enumerate(unscheduled_preds) if n == 0]
        heapq.heapify(ready)
        while ready:
            uid = heapq.heappop(ready)[2]
            inst = instructions[uid]
            cluster = self._pick_cluster(inst, ddg, machine, assignment, state)
            self._place(inst, cluster, ddg, machine, state)
            for edge in ddg.successors(uid):
                unscheduled_preds[edge.dst] -= 1
                if unscheduled_preds[edge.dst] == 0:
                    heapq.heappush(ready, sort_key(edge.dst))

        if len(state.schedule.ops) != len(ddg):
            missing = set(range(len(ddg))) - set(state.schedule.ops)
            raise SchedulingError(
                f"{self.name}: {len(missing)} instructions unschedulable "
                f"(dependence cycle?): {sorted(missing)[:8]}"
            )
        return state.schedule

    # ------------------------------------------------------------------
    # Cluster selection
    # ------------------------------------------------------------------

    def _pick_cluster(
        self,
        inst: Instruction,
        ddg: DataDependenceGraph,
        machine: Machine,
        assignment: Optional[Mapping[int, int]],
        state: _State,
    ) -> int:
        candidates = legal_clusters(inst, machine)
        if not candidates:
            raise SchedulingError(f"no feasible cluster for {inst.label()}")
        if assignment is not None:
            chosen = assignment.get(inst.uid)
            if chosen is None:
                raise SchedulingError(f"assignment missing instruction {inst.uid}")
            if chosen not in candidates:
                raise SchedulingError(
                    f"assignment places {inst.label()} on cluster {chosen}, "
                    f"feasible set is {list(candidates)}"
                )
            return chosen
        if len(candidates) == 1:
            return candidates[0]
        # Greedy earliest-completion choice (UAS): evaluate each cluster
        # without reserving, preferring earlier completion then lighter
        # load.
        loads = state.schedule.cluster_loads(machine.n_clusters)
        best: Optional[Tuple[int, int, int]] = None
        best_cluster = candidates[0]
        for c in candidates:
            start = self._earliest_start(inst, c, ddg, machine, state, commit=False)
            completion = start + effective_latency(inst, c, machine)
            key = (completion, loads[c], c)
            if best is None or key < best:
                best = key
                best_cluster = c
        return best_cluster

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def _earliest_start(
        self,
        inst: Instruction,
        cluster: int,
        ddg: DataDependenceGraph,
        machine: Machine,
        state: _State,
        commit: bool,
    ) -> int:
        """Earliest data-ready cycle of ``inst`` on ``cluster``.

        When ``commit`` is true, any transfers needed by cross-cluster
        data operands are booked into the reservation table.
        """
        earliest = 0
        instructions = ddg.instructions
        for edge in ddg.predecessors(inst.uid):
            src = edge.src
            if edge.carries_value and instructions[src].defines_value:
                ready = self._value_arrival(src, cluster, machine, state, commit)
            else:
                # Ordering edge: issue-to-issue spacing by edge latency.
                ready = state.start[src] + edge.latency
            earliest = max(earliest, ready)
        return earliest

    def _value_arrival(
        self,
        producer: int,
        cluster: int,
        machine: Machine,
        state: _State,
        commit: bool,
    ) -> int:
        """Cycle ``producer``'s value is usable on ``cluster``; schedules
        the transfer if one is needed and not already booked."""
        src_cluster = state.cluster[producer]
        if src_cluster == cluster:
            return state.finish[producer]
        key = (producer, cluster)
        if key in state.arrivals:
            return state.arrivals[key]
        resources = list(machine.comm_resources(src_cluster, cluster))
        issue = state.table.first_free_pipeline(resources, state.finish[producer])
        arrival = issue + machine.comm_latency(src_cluster, cluster)
        if commit:
            state.table.reserve_pipeline(resources, issue)
            state.arrivals[key] = arrival
            state.schedule.add_comm(
                CommEvent(
                    producer_uid=producer,
                    src=src_cluster,
                    dst=cluster,
                    issue=issue,
                    arrival=arrival,
                    resources=tuple(resources),
                )
            )
        return arrival

    def _place(
        self,
        inst: Instruction,
        cluster: int,
        ddg: DataDependenceGraph,
        machine: Machine,
        state: _State,
    ) -> None:
        """Book ``inst`` on ``cluster`` at the earliest legal cycle."""
        data_ready = self._earliest_start(inst, cluster, ddg, machine, state, commit=True)
        latency = effective_latency(inst, cluster, machine)
        if inst.is_pseudo:
            start, unit_index = data_ready, -1
        else:
            units = machine.class_units[cluster, inst.func_class]
            if not units:
                raise SchedulingError(
                    f"cluster {cluster} has no unit for {inst.label()}"
                )
            keys = [("fu", cluster, u) for u in units]
            start, key = state.table.first_free_any(keys, data_ready)
            state.table.reserve(key, start)
            unit_index = key[2]
        state.start[inst.uid] = start
        state.finish[inst.uid] = start + latency
        state.cluster[inst.uid] = cluster
        state.schedule.add_op(
            ScheduledOp(
                uid=inst.uid,
                cluster=cluster,
                unit=unit_index,
                start=start,
                latency=latency,
            )
        )

"""Schedule validation and replay.

:func:`simulate` is the arbiter behind every number the harness
reports: it re-checks a schedule against the machine model —
functional-unit capacity, communication-resource contention, dependence
and transfer timing, preplacement — and then *executes* it, moving
values between per-cluster register files exactly as the schedule
prescribes, verifying the results against the reference interpreter.

Schedulers never grade their own homework: the cycle count reported for
a benchmark is the simulator's, not the scheduler's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.regions import Region
from ..machine.machine import Machine
from ..observability.tracer import timed
from ..schedulers.list_scheduler import effective_latency, legal_clusters

# ``feasible_clusters`` is the list form of ``legal_clusters``.  It stays
# importable here because perfbench/layers.py counts calls to it on every
# module of the convergent path, this one included.
from ..schedulers.list_scheduler import feasible_clusters as feasible_clusters
from ..schedulers.schedule import Schedule
from .interpreter import evaluate_instruction, reference_values


class SimulationError(RuntimeError):
    """Raised (in strict mode) when a schedule is illegal."""


@dataclass
class SimulationReport:
    """Outcome of replaying one schedule.

    Attributes:
        ok: True when no violation was found.
        errors: Human-readable violations (empty when ``ok``).
        cycles: Schedule length in cycles (the number every experiment
            reports).
        instructions: Real (non-pseudo) instructions executed.
        transfers: Inter-cluster value movements.
        cluster_busy: Busy FU-cycles per cluster.
        resource_busy: Busy cycles per communication resource (transfer
            units, mesh links) — the data behind network hot-spot
            analysis.
        values_checked: Number of values compared against the reference
            interpreter.
    """

    ok: bool
    errors: List[str] = field(default_factory=list)
    cycles: int = 0
    instructions: int = 0
    transfers: int = 0
    cluster_busy: Dict[int, int] = field(default_factory=dict)
    resource_busy: Dict[object, int] = field(default_factory=dict)
    values_checked: int = 0

    def utilization(self, machine: Machine) -> float:
        """Fraction of FU-issue slots used across the whole schedule."""
        if self.cycles == 0:
            return 0.0
        capacity = sum(c.issue_width for c in machine.clusters) * self.cycles
        return sum(self.cluster_busy.values()) / capacity if capacity else 0.0

    @property
    def comm_busy_total(self) -> int:
        """Total busy communication-resource cycles across the schedule.

        The sum over :attr:`resource_busy` — a scalar congestion figure
        the benchmark harness records per region alongside the transfer
        count (transfers say *how many* values moved; this says how much
        network capacity moving them consumed).
        """
        return sum(self.resource_busy.values())

    def hottest_resource(self) -> Optional[Tuple[object, int]]:
        """The busiest communication resource and its busy-cycle count,
        or ``None`` when the schedule has no transfers."""
        if not self.resource_busy:
            return None
        resource = max(self.resource_busy, key=lambda r: (self.resource_busy[r], str(r)))
        return resource, self.resource_busy[resource]


def simulate(
    region: Region,
    machine: Machine,
    schedule: Schedule,
    strict: bool = True,
    check_values: bool = True,
) -> SimulationReport:
    """Validate and replay ``schedule`` for ``region`` on ``machine``.

    Args:
        strict: Raise :class:`SimulationError` on the first report with
            violations instead of returning it.
        check_values: Also execute the dataflow and compare every value
            against the reference interpreter.

    Returns:
        A :class:`SimulationReport`; ``report.cycles`` is the metric the
        benchmark harness aggregates.
    """
    with timed("simulate", region=region.name, machine=machine.name):
        return _simulate(region, machine, schedule, strict, check_values)


def transfer_arrivals(schedule: Schedule) -> Dict[Tuple[int, int], int]:
    """Earliest transfer arrival of each value at each cluster it is sent to.

    Maps ``(producer uid, destination cluster)`` to the smallest
    ``arrival`` among the schedule's transfers of that value to that
    cluster: the remote half of
    :meth:`~repro.schedulers.schedule.Schedule.arrival_of`, built in one
    pass over the transfers instead of one scan per query.

    Args:
        schedule: The schedule whose transfers are indexed.

    Returns:
        The arrival index; a pair that no transfer covers is absent.
    """
    arrivals: Dict[Tuple[int, int], int] = {}
    for ev in schedule.comms:
        key = (ev.producer_uid, ev.dst)
        known = arrivals.get(key)
        if known is None or ev.arrival < known:
            arrivals[key] = ev.arrival
    return arrivals


def _simulate(
    region: Region,
    machine: Machine,
    schedule: Schedule,
    strict: bool,
    check_values: bool,
) -> SimulationReport:
    """The body of :func:`simulate`, run inside its profiling span."""
    ddg = region.ddg
    instructions = ddg.instructions
    errors: List[str] = []

    # ------------------------------------------------------------ cover
    scheduled = set(schedule.ops)
    expected = set(range(len(ddg)))
    if scheduled != expected:
        missing = sorted(expected - scheduled)[:5]
        extra = sorted(scheduled - expected)[:5]
        errors.append(f"coverage mismatch: missing {missing}, extra {extra}")

    # -------------------------------------------------- placement rules
    placed = sorted(scheduled & expected)
    for uid in placed:
        op = schedule.ops[uid]
        inst = instructions[uid]
        feasible = legal_clusters(inst, machine)
        if op.cluster not in feasible:
            errors.append(
                f"{inst.label()} on cluster {op.cluster}, feasible {list(feasible)}"
            )
        if op.start < 0:
            errors.append(f"{inst.label()} starts at negative cycle {op.start}")
        expected_latency = effective_latency(inst, op.cluster, machine)
        if op.latency != expected_latency:
            errors.append(
                f"{inst.label()} latency {op.latency}, machine says {expected_latency}"
            )

    # ------------------------------------------------------ FU capacity
    fu_busy: Dict[Tuple[int, int, int], int] = {}
    cluster_busy: Dict[int, int] = {c: 0 for c in range(machine.n_clusters)}
    real_ops = 0
    for uid in placed:
        op = schedule.ops[uid]
        inst = instructions[uid]
        if inst.is_pseudo:
            continue
        real_ops += 1
        cluster = machine.clusters[op.cluster]
        if not 0 <= op.unit < len(cluster.units):
            errors.append(f"{inst.label()} uses invalid unit {op.unit}")
            continue
        unit = cluster.units[op.unit]
        if not unit.can_execute(inst.func_class) and unit.classes:
            # CONST ops may borrow any unit; everything else must match.
            if inst.func_class.name != "CONST":
                errors.append(
                    f"{inst.label()} issued on unit {unit.name} which cannot "
                    f"execute {inst.func_class.name}"
                )
        slot = (op.cluster, op.unit, op.start)
        if slot in fu_busy:
            errors.append(
                f"unit conflict on cluster {op.cluster} unit {op.unit} "
                f"cycle {op.start}: instructions {fu_busy[slot]} and {uid}"
            )
        fu_busy[slot] = uid
        cluster_busy[op.cluster] += 1

    # ------------------------------------------------- comm consistency
    comm_busy: Dict[Tuple[object, int], int] = {}
    for idx, ev in enumerate(schedule.comms):
        producer = schedule.ops.get(ev.producer_uid)
        if producer is None:
            errors.append(f"transfer {idx} moves unscheduled value {ev.producer_uid}")
            continue
        if ev.src != producer.cluster:
            errors.append(
                f"transfer {idx} leaves cluster {ev.src} but value "
                f"{ev.producer_uid} lives on {producer.cluster}"
            )
        if ev.issue < producer.finish:
            errors.append(
                f"transfer {idx} issues at {ev.issue} before value "
                f"{ev.producer_uid} is ready at {producer.finish}"
            )
        expected_arrival = ev.issue + machine.comm_latency(ev.src, ev.dst)
        if ev.arrival != expected_arrival:
            errors.append(
                f"transfer {idx} arrival {ev.arrival}, machine says {expected_arrival}"
            )
        expected_resources = tuple(machine.comm_resources(ev.src, ev.dst))
        if tuple(ev.resources) != expected_resources:
            errors.append(f"transfer {idx} resources do not match the route")
        for offset, resource in enumerate(ev.resources):
            slot = (resource, ev.issue + offset)
            if slot in comm_busy:
                errors.append(
                    f"network contention: resource {resource!r} at cycle "
                    f"{ev.issue + offset} used by transfers {comm_busy[slot]} and {idx}"
                )
            comm_busy[slot] = idx

    # ------------------------------------------------ dependence timing
    remote = transfer_arrivals(schedule)
    for edge in ddg.edges():
        if edge.src not in schedule.ops or edge.dst not in schedule.ops:
            continue
        src_op, dst_op = schedule.ops[edge.src], schedule.ops[edge.dst]
        if edge.carries_value and instructions[edge.src].defines_value:
            # Schedule.arrival_of's rule, with the transfers indexed once.
            if src_op.cluster == dst_op.cluster:
                available: Optional[int] = src_op.finish
            else:
                available = remote.get((edge.src, dst_op.cluster))
            if available is None:
                errors.append(
                    f"value {edge.src} never reaches cluster {dst_op.cluster} "
                    f"needed by instruction {edge.dst}"
                )
            elif dst_op.start < available:
                errors.append(
                    f"instruction {edge.dst} starts at {dst_op.start} before "
                    f"operand {edge.src} arrives at {available}"
                )
        else:
            if dst_op.start < src_op.start + edge.latency:
                errors.append(
                    f"ordering violation: {edge.src}->{edge.dst} requires "
                    f"spacing {edge.latency}, got {dst_op.start - src_op.start}"
                )

    # ------------------------------------------------- dataflow replay
    values_checked = 0
    if check_values and not errors:
        values_checked = _replay_dataflow(region, machine, schedule, errors)

    resource_busy: Dict[object, int] = {}
    for ev in schedule.comms:
        for resource in ev.resources:
            resource_busy[resource] = resource_busy.get(resource, 0) + 1

    report = SimulationReport(
        ok=not errors,
        errors=errors,
        cycles=schedule.makespan,
        instructions=real_ops,
        transfers=len(schedule.comms),
        cluster_busy=cluster_busy,
        resource_busy=resource_busy,
        values_checked=values_checked,
    )
    if strict and errors:
        preview = "; ".join(errors[:4])
        raise SimulationError(
            f"illegal schedule for {region.name} on {machine.name} "
            f"({len(errors)} violations): {preview}"
        )
    return report


def _replay_dataflow(
    region: Region, machine: Machine, schedule: Schedule, errors: List[str]
) -> int:
    """Execute the schedule through per-cluster register files."""
    ddg = region.ddg
    instructions = ddg.instructions
    reference = reference_values(ddg)
    # Event timeline: (time, order, kind, payload).  Transfers snapshot
    # the source register file at issue and deliver at arrival; ops read
    # their cluster's file at start.
    # Within a cycle: deliveries land first (consumers may start the
    # cycle a value arrives), then executions, then transfer snapshots
    # (so a zero-latency producer is visible to a same-cycle send).
    files: List[Dict[int, float]] = [dict() for _ in range(machine.n_clusters)]
    events: List[Tuple[int, int, int, object]] = []
    for uid, op in schedule.ops.items():
        events.append((op.start, 1, 0, uid))
    for idx, ev in enumerate(schedule.comms):
        events.append((ev.arrival, 0, 2, idx))
        events.append((ev.issue, 2, 1, idx))
    events.sort(key=lambda e: (e[0], e[1]))
    in_flight: Dict[int, float] = {}
    checked = 0
    for _time, _phase, kind, payload in events:
        if kind == 1:  # transfer snapshot
            ev = schedule.comms[payload]
            if ev.producer_uid not in files[ev.src]:
                errors.append(
                    f"transfer {payload} snapshots value {ev.producer_uid} "
                    f"missing from cluster {ev.src}"
                )
                return checked
            in_flight[payload] = files[ev.src][ev.producer_uid]
        elif kind == 2:  # transfer delivery
            ev = schedule.comms[payload]
            files[ev.dst][ev.producer_uid] = in_flight.pop(payload)
        else:  # instruction execution
            uid = payload
            op = schedule.ops[uid]
            inst = instructions[uid]
            operand_values = []
            for operand in inst.operands:
                if operand not in files[op.cluster]:
                    errors.append(
                        f"instruction {uid} reads value {operand} absent "
                        f"from cluster {op.cluster} at cycle {op.start}"
                    )
                    return checked
                operand_values.append(files[op.cluster][operand])
            result = evaluate_instruction(
                inst.opcode,
                operand_values,
                uid=uid,
                bank=inst.bank or 0,
                immediate=inst.immediate,
            )
            if inst.defines_value:
                files[op.cluster][uid] = result
            if abs(result - reference[uid]) > 1e-9:
                errors.append(
                    f"value mismatch for instruction {uid}: schedule replay "
                    f"got {result}, reference {reference[uid]}"
                )
                return checked
            checked += 1
    return checked

"""Static legality checks for space-time schedules (``V2xx``).

:func:`verify_schedule` proves a :class:`~repro.schedulers.schedule.
Schedule` legal against the machine model without executing it: every
dependence edge respected under the true latency plus communication
delay (Raw hop-count timing, VLIW transfer-slot timing), no
functional-unit slot booked twice, every communication event
route-feasible and contention-free, and the makespan consistent.

The checks are re-derived from first principles — placement feasibility
and effective latencies are computed locally from the
:class:`~repro.machine.machine.Machine` interface rather than imported
from :mod:`repro.schedulers.list_scheduler` — so the verifier is an
oracle independent of both the schedulers and the simulator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.instruction import Instruction
from ..ir.opcode import FuncClass
from ..ir.regions import Region
from ..machine.machine import Machine
from ..schedulers.schedule import Schedule
from .diagnostics import VerificationReport


def _placement_clusters(inst: Instruction, machine: Machine) -> List[int]:
    """Clusters ``inst`` may legally occupy, derived from the machine spec.

    Honors explicit preplacement, hard memory-bank affinity, and
    functional-unit availability; pseudo and constant operations may run
    anywhere.

    Args:
        inst: The instruction being placed.
        machine: The target machine model.

    Returns:
        The sorted list of legal cluster indices.
    """
    if inst.home_cluster is not None:
        return [inst.home_cluster]
    if inst.is_memory and inst.bank is not None and machine.memory_affinity == "hard":
        return [machine.bank_home(inst.bank)]
    if inst.func_class in (FuncClass.PSEUDO, FuncClass.CONST):
        return list(range(machine.n_clusters))
    return [
        c
        for c in range(machine.n_clusters)
        if machine.clusters[c].can_execute(inst.func_class)
    ]


def _true_latency(inst: Instruction, cluster: int, machine: Machine) -> int:
    """Result latency of ``inst`` on ``cluster`` under the machine spec.

    Adds the remote-bank penalty for memory operations on soft-affinity
    machines whose bank lives elsewhere.

    Args:
        inst: The instruction.
        cluster: The cluster it is placed on.
        machine: The target machine model.

    Returns:
        The latency in cycles.
    """
    latency = machine.latency_model.latency(inst.opcode)
    if (
        inst.is_memory
        and inst.bank is not None
        and machine.memory_affinity == "soft"
        and machine.bank_home(inst.bank) != cluster
    ):
        latency += machine.remote_mem_penalty
    return latency


def verify_schedule(
    region: Region,
    machine: Machine,
    schedule: Schedule,
    subject: str = "",
) -> VerificationReport:
    """Check one schedule against its region and machine; report V2xx.

    Args:
        region: The region the schedule claims to implement.
        machine: The target machine model.
        schedule: The schedule to verify.
        subject: Label for the report (defaults to region/machine names).

    Returns:
        A :class:`~repro.verify.diagnostics.VerificationReport`; the
        schedule is legal iff ``report.ok``.
    """
    report = VerificationReport(
        subject=subject or f"{region.name} on {machine.name}",
        checker="verify_schedule",
    )
    ddg = region.ddg
    _check_coverage(ddg, schedule, report)
    present = {uid for uid in schedule.ops if 0 <= uid < len(ddg)}
    _check_placement(ddg, machine, schedule, present, report)
    _check_fu_capacity(ddg, machine, schedule, present, report)
    _check_comm_events(machine, schedule, report)
    _check_dependences(ddg, schedule, report)
    _check_makespan(schedule, report)
    return report


def _check_coverage(ddg, schedule: Schedule, report: VerificationReport) -> None:
    """Every instruction scheduled exactly once, nothing extra."""
    scheduled = set(schedule.ops)
    expected = set(range(len(ddg)))
    for uid in sorted(expected - scheduled):
        report.add("V201", f"instruction {uid} is not scheduled", uid=uid)
    for uid in sorted(scheduled - expected):
        report.add("V202", f"scheduled uid {uid} does not exist in the region", uid=uid)


def _check_placement(
    ddg, machine: Machine, schedule: Schedule, present, report: VerificationReport
) -> None:
    """Cluster feasibility, start-cycle sign, and latency truth."""
    for uid in sorted(present):
        op = schedule.ops[uid]
        inst = ddg.instruction(uid)
        if op.start < 0:
            report.add(
                "V203",
                f"{inst.label()} starts at cycle {op.start}",
                uid=uid,
                cycle=op.start,
            )
        legal = _placement_clusters(inst, machine)
        if op.cluster not in legal:
            report.add(
                "V204",
                f"{inst.label()} on cluster {op.cluster}, legal clusters {legal}",
                uid=uid,
                cluster=op.cluster,
            )
            continue
        expected = _true_latency(inst, op.cluster, machine)
        if op.latency != expected:
            report.add(
                "V205",
                f"{inst.label()} records latency {op.latency}, "
                f"machine model says {expected}",
                uid=uid,
                cluster=op.cluster,
            )


def _check_fu_capacity(
    ddg, machine: Machine, schedule: Schedule, present, report: VerificationReport
) -> None:
    """No functional-unit slot used twice; units exist and are capable."""
    booked: Dict[Tuple[int, int, int], int] = {}
    for uid in sorted(present):
        op = schedule.ops[uid]
        inst = ddg.instruction(uid)
        if inst.is_pseudo:
            if op.unit >= 0:
                report.add(
                    "V217",
                    f"pseudo op {inst.label()} claims unit {op.unit}",
                    uid=uid,
                    cluster=op.cluster,
                )
            continue
        if not 0 <= op.cluster < machine.n_clusters:
            continue  # already reported as V204
        cluster = machine.clusters[op.cluster]
        if not 0 <= op.unit < len(cluster.units):
            report.add(
                "V207",
                f"{inst.label()} uses unit {op.unit}; cluster {op.cluster} "
                f"has {len(cluster.units)}",
                uid=uid,
                cluster=op.cluster,
            )
            continue
        unit = cluster.units[op.unit]
        if (
            unit.classes
            and not unit.can_execute(inst.func_class)
            and inst.func_class != FuncClass.CONST
        ):
            report.add(
                "V207",
                f"{inst.label()} issued on unit {unit.name}, which cannot "
                f"execute {inst.func_class.name}",
                uid=uid,
                cluster=op.cluster,
            )
        slot = (op.cluster, op.unit, op.start)
        if slot in booked:
            report.add(
                "V206",
                f"cluster {op.cluster} unit {op.unit} cycle {op.start} "
                f"booked by instructions {booked[slot]} and {uid}",
                uid=uid,
                cluster=op.cluster,
                cycle=op.start,
            )
        else:
            booked[slot] = uid


def _check_comm_events(
    machine: Machine, schedule: Schedule, report: VerificationReport
) -> None:
    """Transfers: source truth, readiness, timing, routes, contention."""
    occupancy: Dict[Tuple[object, int], int] = {}
    for idx, ev in enumerate(schedule.comms):
        producer = schedule.ops.get(ev.producer_uid)
        if producer is None:
            report.add(
                "V216",
                f"transfer {idx} moves value {ev.producer_uid}, which is "
                "not scheduled",
                uid=ev.producer_uid,
            )
            continue
        if ev.src != producer.cluster:
            report.add(
                "V212",
                f"transfer {idx} leaves cluster {ev.src} but value "
                f"{ev.producer_uid} lives on cluster {producer.cluster}",
                uid=ev.producer_uid,
                cluster=ev.src,
            )
        if ev.issue < producer.finish:
            report.add(
                "V211",
                f"transfer {idx} issues at cycle {ev.issue} before value "
                f"{ev.producer_uid} is ready at {producer.finish}",
                uid=ev.producer_uid,
                cycle=ev.issue,
            )
        expected_arrival = ev.issue + machine.comm_latency(ev.src, ev.dst)
        if ev.arrival != expected_arrival:
            report.add(
                "V213",
                f"transfer {idx} claims arrival {ev.arrival}; "
                f"{machine.name} says {expected_arrival} "
                f"({ev.src}->{ev.dst})",
                uid=ev.producer_uid,
                cycle=ev.arrival,
            )
        expected_route = tuple(machine.comm_resources(ev.src, ev.dst))
        if tuple(ev.resources) != expected_route:
            report.add(
                "V214",
                f"transfer {idx} occupies {list(ev.resources)}; the "
                f"{ev.src}->{ev.dst} route needs {list(expected_route)}",
                uid=ev.producer_uid,
            )
        for offset, resource in enumerate(ev.resources):
            slot = (resource, ev.issue + offset)
            if slot in occupancy:
                report.add(
                    "V215",
                    f"resource {resource!r} at cycle {ev.issue + offset} "
                    f"held by transfers {occupancy[slot]} and {idx}",
                    uid=ev.producer_uid,
                    cycle=ev.issue + offset,
                )
            else:
                occupancy[slot] = idx


def _check_dependences(ddg, schedule: Schedule, report: VerificationReport) -> None:
    """Every edge respected: arrival timing for values, spacing otherwise."""
    arrivals = _arrival_index(schedule)
    for edge in ddg.edges():
        if edge.src not in schedule.ops or edge.dst not in schedule.ops:
            continue  # coverage diagnostics already emitted
        src_op, dst_op = schedule.ops[edge.src], schedule.ops[edge.dst]
        if edge.carries_value and ddg.instruction(edge.src).defines_value:
            available = _availability(schedule, arrivals, edge.src, dst_op.cluster)
            if available is None:
                report.add(
                    "V210",
                    f"value {edge.src} never reaches cluster {dst_op.cluster}, "
                    f"where instruction {edge.dst} reads it",
                    uid=edge.dst,
                    cluster=dst_op.cluster,
                )
            elif dst_op.start < available:
                report.add(
                    "V208",
                    f"instruction {edge.dst} starts at cycle {dst_op.start} "
                    f"but operand {edge.src} arrives at {available}",
                    uid=edge.dst,
                    cycle=dst_op.start,
                )
        elif dst_op.start < src_op.start + edge.latency:
            report.add(
                "V209",
                f"{edge.kind} edge {edge.src}->{edge.dst} needs spacing "
                f"{edge.latency}, got {dst_op.start - src_op.start}",
                uid=edge.dst,
                cycle=dst_op.start,
            )


def _arrival_index(schedule: Schedule) -> Dict[Tuple[int, int], int]:
    """Earliest transfer arrival per ``(producer uid, destination cluster)``.

    Built once per :func:`verify_schedule` call from ``schedule.comms``
    alone (not from :meth:`Schedule.arrival_of` or the simulator's
    index), keeping the timing oracle independent of the code it checks.
    """
    arrivals: Dict[Tuple[int, int], int] = {}
    for ev in schedule.comms:
        key = (ev.producer_uid, ev.dst)
        known = arrivals.get(key)
        if known is None or ev.arrival < known:
            arrivals[key] = ev.arrival
    return arrivals


def _availability(
    schedule: Schedule,
    arrivals: Dict[Tuple[int, int], int],
    producer_uid: int,
    cluster: int,
) -> Optional[int]:
    """First cycle ``producer_uid``'s value is usable on ``cluster``.

    The local finish when the producer runs on ``cluster``, else the
    earliest matching transfer arrival from ``arrivals``
    (:func:`_arrival_index`); ``None`` when the value never gets there.
    """
    op = schedule.ops.get(producer_uid)
    if op is None:
        return None
    if op.cluster == cluster:
        return op.finish
    return arrivals.get((producer_uid, cluster))


def _check_makespan(schedule: Schedule, report: VerificationReport) -> None:
    """Makespan equals the first-principles recomputation."""
    recomputed = 0
    for op in schedule.ops.values():
        recomputed = max(recomputed, op.start + op.latency)
    for ev in schedule.comms:
        recomputed = max(recomputed, ev.arrival)
    if schedule.makespan != recomputed:
        report.add(
            "V218",
            f"schedule reports makespan {schedule.makespan}, recomputation "
            f"gives {recomputed}",
            cycle=schedule.makespan,
        )

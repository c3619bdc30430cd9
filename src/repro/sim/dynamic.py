"""Dynamic (cycle-driven) execution of space-time schedules.

The static checker (:mod:`repro.sim.simulator`) verifies a schedule
against the machine model's *declared* costs.  This module provides an
independent cross-check: it executes the schedule cycle by cycle on a
discrete-event model of the machine — functional units fire, transfers
traverse the network hop by hop through per-link queues, processors
*wait* when an operand has not arrived instead of trusting the
schedule's timestamps.

Because the replay derives timing only from the machine's physics (unit
occupancy, hop latency, one word per port per cycle), agreement between
the dynamic finish time and the static makespan is strong evidence the
cost model and the scheduler's bookkeeping match.  For a valid schedule
the dynamic time can never be *earlier*; it can be *later* only if the
static model under-charged something — which :func:`dynamic_execute`
reports as a violation.

This mirrors Raw's own duality: the compiler proves the static-network
timing at compile time, and the hardware would behave identically when
nothing interferes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..ir.regions import Region
from ..machine.machine import Machine
from ..schedulers.schedule import Schedule

#: Injection and ejection each take one cycle beyond the per-hop link
#: traversal, matching ``RawMachine.comm_latency = 2 + hops`` and the
#: VLIW transfer's single cycle (0 hops are handled separately).
_PORT_OVERHEAD = 2


@dataclass
class DynamicReport:
    """Outcome of a dynamic replay.

    Attributes:
        cycles: Cycle the last result or delivery completed.
        stalled_instructions: Instructions whose operands were not ready
            at their scheduled start (static model under-charged).
        late_transfers: Transfers that arrived later than the schedule
            promised.
        ok: True when nothing ran late — the static and dynamic timing
            models agree.
    """

    cycles: int
    stalled_instructions: List[int] = field(default_factory=list)
    late_transfers: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.stalled_instructions and not self.late_transfers


def dynamic_execute(
    region: Region, machine: Machine, schedule: Schedule
) -> DynamicReport:
    """Replay ``schedule`` under dynamic timing.

    Every instruction fires at its scheduled cycle; its operands must
    already be present in the tile's register file under the *dynamic*
    arrival times (producer finish, or transfer delivery after hop-by-hop
    traversal).  Transfers launch at their scheduled issue cycle and
    pipeline through the network one hop per cycle.

    Returns a :class:`DynamicReport`; ``report.ok`` means the dynamic
    machine agrees with every timing promise the schedule made.
    """
    ddg = region.ddg

    # Dynamic availability time of each value on each cluster.
    available: Dict[Tuple[int, int], int] = {}
    finish_time: Dict[int, int] = {}
    report_cycles = 0

    # Producer finishes (trusting issue cycles; operand readiness is
    # checked against dynamic arrivals below).
    for uid, op in schedule.ops.items():
        finish_time[uid] = op.finish
        inst = ddg.instruction(uid)
        if inst.defines_value:
            available[(uid, op.cluster)] = op.finish
        report_cycles = max(report_cycles, op.finish)

    # Transfers traverse hop by hop; each hop takes one cycle and the
    # endpoints each add a port cycle.
    late_transfers: List[int] = []
    for index, ev in enumerate(schedule.comms):
        hops = max(1, machine.distance(ev.src, ev.dst))
        launch = max(ev.issue, finish_time.get(ev.producer_uid, 0))
        dynamic_arrival = launch + _PORT_OVERHEAD + hops - (1 if hops == 0 else 0)
        if machine.comm_latency(ev.src, ev.dst) < _PORT_OVERHEAD + hops:
            # Machines with cheaper declared communication (the VLIW's
            # 1-cycle bus copy) deliver at their declared latency.
            dynamic_arrival = launch + machine.comm_latency(ev.src, ev.dst)
        if dynamic_arrival > ev.arrival:
            late_transfers.append(index)
        key = (ev.producer_uid, ev.dst)
        arrival = min(available.get(key, dynamic_arrival), dynamic_arrival)
        available[key] = arrival
        report_cycles = max(report_cycles, arrival)

    # Instructions: operands must have arrived dynamically.
    stalled: List[int] = []
    for uid, op in sorted(schedule.ops.items(), key=lambda kv: kv[1].start):
        inst = ddg.instruction(uid)
        for operand in inst.operands:
            when = available.get((operand, op.cluster))
            if when is None or when > op.start:
                stalled.append(uid)
                break

    return DynamicReport(
        cycles=report_cycles,
        stalled_instructions=stalled,
        late_transfers=late_transfers,
    )


def crosscheck(region: Region, machine: Machine, schedule: Schedule) -> None:
    """Assert static and dynamic timing agree; raises ``AssertionError``
    with details otherwise.  A convenience for tests and the harness."""
    report = dynamic_execute(region, machine, schedule)
    if not report.ok:
        raise AssertionError(
            f"dynamic replay disagrees with static schedule for "
            f"{region.name}: {len(report.stalled_instructions)} stalled "
            f"instructions {report.stalled_instructions[:5]}, "
            f"{len(report.late_transfers)} late transfers "
            f"{report.late_transfers[:5]}"
        )
    if report.cycles > schedule.makespan:
        raise AssertionError(
            f"dynamic replay of {region.name} needs {report.cycles} cycles, "
            f"static makespan is {schedule.makespan}"
        )

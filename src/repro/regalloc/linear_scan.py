"""Per-cluster linear-scan register allocation.

Both compilers in the paper run a traditional single-cluster register
allocator after space-time scheduling (Rawcc per tile, Chorus per
cluster, George-Appel style).  This module allocates each cluster's
register file over the scheduled live intervals with the classic
linear-scan algorithm (Poletto & Sarkar) and reports the spills a
schedule would incur — the register-pressure feedback that makes
aggressive partitioning expensive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..ir.regions import Region
from ..machine.machine import Machine
from ..schedulers.schedule import Schedule
from .pressure import LiveInterval, live_intervals


@dataclass
class AllocationResult:
    """Outcome of register allocation for one schedule.

    Attributes:
        assignments: (value, cluster) -> register index, for values that
            got a register.
        spills: Intervals that did not fit and must live in memory.
        spill_cost_cycles: Estimated cycles added by spill code: one
            store at the definition plus one load per spilled interval,
            charged at the machine's load/store latencies.
    """

    assignments: Dict[tuple, int] = field(default_factory=dict)
    spills: List[LiveInterval] = field(default_factory=list)
    spill_cost_cycles: int = 0

    @property
    def spill_count(self) -> int:
        return len(self.spills)


def allocate_registers(
    region: Region,
    machine: Machine,
    schedule: Schedule,
    reserved: int = 2,
) -> AllocationResult:
    """Linear-scan allocation of every cluster's register file.

    Args:
        reserved: Registers kept back per cluster (assembler temporaries,
            stack pointer), matching conventional ABIs.

    Intervals are scanned in start order; when a cluster's file is
    exhausted the interval with the furthest end is spilled (the classic
    heuristic, minimizing expected reload count).
    """
    from ..ir.opcode import Opcode

    intervals = live_intervals(region, machine, schedule)
    result = AllocationResult()
    store_latency = machine.latency(Opcode.STORE)
    load_latency = machine.latency(Opcode.LOAD)
    for cluster_index, cluster in enumerate(machine.clusters):
        available = max(0, cluster.registers - reserved)
        cluster_intervals = sorted(
            (iv for iv in intervals if iv.cluster == cluster_index),
            key=lambda iv: (iv.start, iv.end, iv.value),
        )
        active: List[LiveInterval] = []
        registers: Dict[int, int] = {}  # value -> register
        free = list(range(available))

        def expire(current_start: int) -> None:
            still_active = []
            for iv in active:
                if iv.end < current_start:
                    free.append(registers.pop(iv.value))
                else:
                    still_active.append(iv)
            active[:] = still_active

        for interval in cluster_intervals:
            expire(interval.start)
            if free:
                reg = free.pop()
                registers[interval.value] = reg
                active.append(interval)
                active.sort(key=lambda iv: iv.end)
                result.assignments[(interval.value, cluster_index)] = reg
            else:
                # Spill whichever active interval ends last.
                if active and active[-1].end > interval.end:
                    victim = active.pop()
                    reg = registers.pop(victim.value)
                    del result.assignments[(victim.value, cluster_index)]
                    result.spills.append(victim)
                    registers[interval.value] = reg
                    active.append(interval)
                    active.sort(key=lambda iv: iv.end)
                    result.assignments[(interval.value, cluster_index)] = reg
                else:
                    result.spills.append(interval)
    result.spill_cost_cycles = (store_latency + load_latency) * len(result.spills)
    return result


def spill_adjusted_cycles(
    region: Region, machine: Machine, schedule: Schedule, reserved: int = 2
) -> int:
    """Schedule length plus the estimated cost of spill code.

    A coarse but monotone penalty: schedules that blow out a register
    file look worse than their raw makespan suggests, which is the
    paper's motivation for treating register pressure as a scheduling
    constraint.
    """
    allocation = allocate_registers(region, machine, schedule, reserved=reserved)
    return schedule.makespan + allocation.spill_cost_cycles

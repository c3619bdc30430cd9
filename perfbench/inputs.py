"""Seeded inputs and the independent correctness reference.

Every workload compiles the same input set: the complete raw4x4 suite
(9 programs), the complete vliw4 suite (7 programs), one seeded
``thin_graph`` and one seeded ``fat_graph`` (the two families of the
paper's Figure 2).  Both synthetic graphs are larger than RegionIndex's
1024-node all-pairs cap, so the grouped hop-distance path is timed next
to the all-pairs path the suite programs take.

The reference cycles come from a direct ``ConvergentScheduler.schedule``
call per region, checked by the independent static verifier and by the
strict, value-checking simulator — never from the harness, cache or
server under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro import ConvergentScheduler
from repro.ir.regions import Program, Region
from repro.machine import Machine, machine_from_spec
from repro.schedulers.schedule import Schedule
from repro.sim.simulator import simulate
from repro.verify import verify_schedule
from repro.workloads import RAW_SUITE, VLIW_SUITE, build_benchmark
from repro.workloads.congruence import apply_congruence
from repro.workloads.synthetic import fat_graph, thin_graph

#: Instructions requested from each synthetic generator; above the
#: 1024-node cap under which RegionIndex precomputes all-pairs hops.
SYNTHETIC_NODES = 1100

#: The committed snapshot whose convergent cells give the suite cycles at
#: noise seed 0.
BENCH_4 = Path(__file__).resolve().parent.parent / "BENCH_4.json"


@dataclass
class Input:
    """One program bound to the machine it is compiled for."""

    program: Program
    machine: Machine
    spec: str
    suite: bool

    @property
    def label(self) -> str:
        """``machine/program``, the key of every per-input record."""
        return f"{self.spec}/{self.program.name}"


def build_inputs(seed: int) -> List[Input]:
    """The 18 inputs every workload compiles, drawn from ``seed``."""
    raw = machine_from_spec("raw4x4")
    vliw = machine_from_spec("vliw4")
    inputs = [Input(build_benchmark(n, raw), raw, "raw4x4", True) for n in RAW_SUITE]
    inputs += [Input(build_benchmark(n, vliw), vliw, "vliw4", True) for n in VLIW_SUITE]
    thin = apply_congruence(thin_graph(SYNTHETIC_NODES, seed=seed), raw)
    fat = apply_congruence(fat_graph(SYNTHETIC_NODES, seed=seed), vliw)
    inputs.append(Input(thin, raw, "raw4x4", False))
    inputs.append(Input(fat, vliw, "vliw4", False))
    return inputs


def checked_cycles(
    region: Region, machine: Machine, schedule: Schedule, problems: List[str]
) -> Optional[int]:
    """Cycles of ``schedule`` once the verifier and simulator accept it.

    Args:
        region: The scheduled region.
        machine: Its target machine.
        schedule: The schedule under check.
        problems: Receives one line per rejection.

    Returns:
        The strict, value-checked simulator cycles, or ``None`` when the
        schedule was rejected.
    """
    label = f"{machine.name}/{region.name}"
    if not verify_schedule(region, machine, schedule).ok:
        problems.append(f"{label}: verify_schedule rejected the schedule")
        return None
    try:
        return simulate(region, machine, schedule, strict=True, check_values=True).cycles
    except Exception as exc:  # noqa: BLE001 - every rejection is a failed op
        problems.append(f"{label}: simulator rejected the schedule: {exc}")
        return None


def program_cycles(program: Program, region_cycles: Dict[str, int]) -> int:
    """Trip-count-weighted program cycles, the harness's aggregation rule."""
    return sum(region_cycles[r.name] * r.trip_count for r in program.regions)


@dataclass
class Reference:
    """Reference cycles for every input, plus what failed to check."""

    region_cycles: Dict[str, Dict[str, int]]
    cycles: Dict[str, int]
    problems: List[str]


def reference_cycles(
    program: Program, machine: Machine, seed: int, problems: List[str]
) -> Dict[str, int]:
    """Cold-compile every region of ``program`` and check each schedule."""
    scheduler = ConvergentScheduler(seed=seed)
    cycles = {}
    for region in program.regions:
        schedule = scheduler.schedule(region, machine)
        cycles[region.name] = checked_cycles(region, machine, schedule, problems) or 0
    return cycles


def build_reference(inputs: List[Input], seed: int) -> Reference:
    """Reference cycles for ``inputs``; at seed 0, also check BENCH_4."""
    problems: List[str] = []
    region_cycles = {
        item.label: reference_cycles(item.program, item.machine, seed, problems)
        for item in inputs
    }
    cycles = {
        item.label: program_cycles(item.program, region_cycles[item.label])
        for item in inputs
    }
    if seed == 0:
        expected = {
            f"{cell['machine']}/{cell['benchmark']}": cell["quality"]["cycles"]
            for cell in json.loads(BENCH_4.read_text())["cells"]
            if cell["scheduler"] == "convergent"
        }
        for item in inputs:
            if item.suite and expected.get(item.label) != cycles[item.label]:
                problems.append(
                    f"{item.label}: {cycles[item.label]} cycles at seed 0, "
                    f"BENCH_4 has {expected.get(item.label)}"
                )
    return Reference(region_cycles, cycles, problems)

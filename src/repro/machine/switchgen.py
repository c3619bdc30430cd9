"""Static-network switch code generation for Raw.

Raw's defining feature is that the inter-tile network is *programmed by
the compiler*: each tile's switch runs its own instruction stream of
route operations, and correctness requires every switch to pop the right
word in the right cycle.  The schedule-level view of communication
(:class:`~repro.schedulers.schedule.CommEvent`) is an abstraction over
those streams; this module lowers a schedule's transfers into per-tile
switch programs and checks them against the machine model — the last
mile of the Rawcc-style backend.

Each transfer of a value from tile ``s`` to tile ``d`` along the
dimension-ordered route becomes:

* an *inject* op on ``s``'s switch (read the processor's register-mapped
  port, send toward the next hop),
* a *forward* op on every intermediate tile's switch,
* an *eject* op on ``d``'s switch (deliver into the processor's port).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..schedulers.schedule import Schedule
from .raw import RawMachine


class Port(enum.Enum):
    """Switch ports: the local processor and the four mesh directions."""

    PROC = "proc"
    NORTH = "north"
    SOUTH = "south"
    EAST = "east"
    WEST = "west"


@dataclass(frozen=True)
class SwitchOp:
    """One switch instruction: at ``cycle``, move a word from ``source``
    to ``sink``.

    Attributes:
        cycle: Issue cycle on this tile's switch.
        source: Port the word arrives on.
        sink: Port the word leaves through.
        value: Producer instruction uid (for debugging/validation).
        transfer: Index of the CommEvent this op serves.
    """

    cycle: int
    source: Port
    sink: Port
    value: int
    transfer: int


def _direction(machine: RawMachine, from_tile: int, to_tile: int) -> Port:
    """Mesh direction of the single hop ``from_tile -> to_tile``."""
    r1, c1 = machine.coords(from_tile)
    r2, c2 = machine.coords(to_tile)
    if (abs(r1 - r2), abs(c1 - c2)) not in ((0, 1), (1, 0)):
        raise ValueError(f"tiles {from_tile} and {to_tile} are not neighbours")
    if r2 > r1:
        return Port.SOUTH
    if r2 < r1:
        return Port.NORTH
    if c2 > c1:
        return Port.EAST
    return Port.WEST


#: Entering a tile from direction X means arriving on the opposite port.
_OPPOSITE = {
    Port.NORTH: Port.SOUTH,
    Port.SOUTH: Port.NORTH,
    Port.EAST: Port.WEST,
    Port.WEST: Port.EAST,
}


def generate_switch_code(
    schedule: Schedule, machine: RawMachine
) -> Dict[int, List[SwitchOp]]:
    """Lower every transfer in ``schedule`` to per-tile switch programs.

    The head word occupies the injection port at the transfer's issue
    cycle and each successive link one cycle later (matching the
    resources the list scheduler reserved), so the generated ops are
    contention-free whenever the schedule was.

    Returns:
        Map from tile index to its switch ops, sorted by cycle.
    """
    programs: Dict[int, List[SwitchOp]] = {t: [] for t in range(machine.n_clusters)}
    for index, ev in enumerate(schedule.comms):
        path = machine.route_path(ev.src, ev.dst)
        # Cycle k of the pipeline: hop k-1 -> k (injection is cycle 0).
        for position, tile in enumerate(path):
            if position == 0:
                source = Port.PROC
            else:
                source = _OPPOSITE[_direction(machine, path[position - 1], tile)]
            if position == len(path) - 1:
                sink = Port.PROC
            else:
                sink = _direction(machine, tile, path[position + 1])
            programs[tile].append(
                SwitchOp(
                    cycle=ev.issue + position,
                    source=source,
                    sink=sink,
                    value=ev.producer_uid,
                    transfer=index,
                )
            )
    for ops in programs.values():
        ops.sort(key=lambda op: (op.cycle, op.transfer))
    return programs


def validate_switch_code(
    programs: Dict[int, List[SwitchOp]],
    schedule: Schedule,
    machine: RawMachine,
) -> List[str]:
    """Cross-check switch programs against the schedule.

    Returns a list of violations (empty when clean):

    * two words crossing the same switch port in one cycle (a Raw
      switch instruction is wide — it may route several words at once —
      but each port carries one word per cycle);
    * a transfer with missing or non-consecutive hops;
    * a transfer not starting/ending at its endpoints' processor ports.
    """
    errors: List[str] = []
    # Per-port occupancy: each (tile, cycle, port) carries one word.
    for tile, ops in programs.items():
        port_use: Dict[Tuple[int, Port, str], int] = {}
        for op in ops:
            for port, direction in ((op.source, "in"), (op.sink, "out")):
                key = (op.cycle, port, direction)
                if key in port_use and port_use[key] != op.transfer:
                    errors.append(
                        f"tile {tile}: port {port.value} ({direction}) carries two "
                        f"words at cycle {op.cycle} "
                        f"(transfers {port_use[key]} and {op.transfer})"
                    )
                port_use[key] = op.transfer
    # Hop continuity per transfer.
    by_transfer: Dict[int, List[Tuple[int, SwitchOp]]] = {}
    for tile, ops in programs.items():
        for op in ops:
            by_transfer.setdefault(op.transfer, []).append((tile, op))
    for index, ev in enumerate(schedule.comms):
        hops = sorted(by_transfer.get(index, []), key=lambda item: item[1].cycle)
        if not hops:
            errors.append(f"transfer {index} generated no switch code")
            continue
        first_tile, first_op = hops[0]
        if first_tile != ev.src or first_op.source is not Port.PROC:
            errors.append(f"transfer {index} does not start at its source processor")
        last_tile, last_op = hops[-1]
        if last_tile != ev.dst or last_op.sink is not Port.PROC:
            errors.append(f"transfer {index} does not end at its destination processor")
        for (tile_a, op_a), (tile_b, op_b) in zip(hops, hops[1:]):
            if op_b.cycle != op_a.cycle + 1:
                errors.append(
                    f"transfer {index}: hop from tile {tile_a} to {tile_b} "
                    f"not in consecutive cycles"
                )
            if machine.distance(tile_a, tile_b) != 1:
                errors.append(
                    f"transfer {index}: tiles {tile_a} and {tile_b} are not adjacent"
                )
    return errors


def render_switch_program(tile: int, ops: List[SwitchOp]) -> str:
    """Assembly-style listing of one tile's switch program."""
    lines = [f"; switch program, tile {tile}"]
    for op in ops:
        lines.append(
            f"  @{op.cycle:<4d} route {op.source.value:>5s} -> {op.sink.value:<5s}"
            f"   ; v{op.value} (xfer {op.transfer})"
        )
    return "\n".join(lines)

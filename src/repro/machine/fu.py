"""Functional units and clusters.

A :class:`Cluster` is one computing resource of a spatial architecture —
a Chorus VLIW cluster or a Raw tile — and owns a set of
:class:`FunctionalUnit` slots.  The list scheduler reserves these slots
cycle by cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from ..ir.opcode import FuncClass


@dataclass(frozen=True)
class FunctionalUnit:
    """One issue slot that can execute a set of functional classes.

    Attributes:
        name: Label used in schedule dumps, e.g. ``"ialu0"``.
        classes: Functional classes this unit accepts.
        pipelined: Whether a new operation can issue every cycle.  An
            unpipelined unit is busy for the operation's full latency.
    """

    name: str
    classes: FrozenSet[FuncClass]
    pipelined: bool = True

    def can_execute(self, func_class: FuncClass) -> bool:
        """True if this unit accepts operations of ``func_class``."""
        return func_class in self.classes


@dataclass(frozen=True)
class Cluster:
    """A cluster/tile: functional units plus a register file.

    Attributes:
        index: Cluster id, dense from 0.
        units: The functional units; their count is the issue width.
        registers: Architected register count, used by the register
            pressure model and the linear-scan allocator.
    """

    index: int
    units: Tuple[FunctionalUnit, ...]
    registers: int = 32

    def units_for(self, func_class: FuncClass) -> Tuple[FunctionalUnit, ...]:
        """The units able to execute ``func_class``."""
        return tuple(u for u in self.units if u.can_execute(func_class))

    def can_execute(self, func_class: FuncClass) -> bool:
        """True if any unit in the cluster executes ``func_class``."""
        return any(u.can_execute(func_class) for u in self.units)

    @property
    def issue_width(self) -> int:
        """Operations issued per cycle (one per unit)."""
        return len(self.units)

"""Cycle-by-cycle resource reservation.

Both functional-unit slots and communication resources (transfer units,
static-network links) are booked in a :class:`ReservationTable`.  A
resource key is any hashable value; the list scheduler uses
``("fu", cluster, unit_index)`` for issue slots and the machine model's
:data:`~repro.machine.machine.CommResource` tuples for transfers.
"""

from __future__ import annotations

from typing import Dict, Hashable, Sequence, Set, Tuple

ResourceKey = Hashable


class ReservationTable:
    """Tracks which (resource, cycle) pairs are occupied."""

    def __init__(self) -> None:
        self._busy: Set[Tuple[ResourceKey, int]] = set()

    def is_free(self, key: ResourceKey, cycle: int) -> bool:
        """True if ``key`` is unoccupied at ``cycle``."""
        return (key, cycle) not in self._busy

    def reserve(self, key: ResourceKey, cycle: int) -> None:
        """Mark ``key`` busy at ``cycle``; raises if already busy."""
        slot = (key, cycle)
        if slot in self._busy:
            raise ValueError(f"resource {key!r} already reserved at cycle {cycle}")
        self._busy.add(slot)

    def first_free_pipeline(
        self,
        keys: Sequence[ResourceKey],
        earliest: int,
        horizon: int = 1 << 20,
    ) -> int:
        """Earliest ``s >= earliest`` with ``keys[k]`` free at ``s + k``.

        Models a pipelined traversal: the transfer's head occupies each
        resource on successive cycles.
        """
        busy = self._busy
        s = earliest
        while s < earliest + horizon:
            if all((k, s + off) not in busy for off, k in enumerate(keys)):
                return s
            s += 1
        raise RuntimeError("no free pipeline slot within horizon")

    def reserve_pipeline(self, keys: Sequence[ResourceKey], start: int) -> None:
        """Reserve ``keys[k]`` at ``start + k`` for all k."""
        for off, k in enumerate(keys):
            self.reserve(k, start + off)

    def first_free_any(
        self,
        keys: Sequence[ResourceKey],
        earliest: int,
        horizon: int = 1 << 20,
    ) -> Tuple[int, ResourceKey]:
        """Earliest cycle ``>= earliest`` at which *any* of ``keys`` is
        free; returns ``(cycle, key)``.

        Used to pick a functional unit: any unit of the right class will
        do, whichever frees up first.
        """
        if not keys:
            raise ValueError("no candidate resources")
        busy = self._busy
        s = earliest
        while s < earliest + horizon:
            for k in keys:
                if (k, s) not in busy:
                    return s, k
            s += 1
        raise RuntimeError("no free slot within horizon")

    def utilization(self, key_filter=None) -> Dict[ResourceKey, int]:
        """Busy-cycle counts per resource (optionally filtered)."""
        out: Dict[ResourceKey, int] = {}
        for key, _cycle in self._busy:
            if key_filter is None or key_filter(key):
                out[key] = out.get(key, 0) + 1
        return out

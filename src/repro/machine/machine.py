"""Abstract spatial machine model.

A :class:`Machine` tells the schedulers everything they need to know
about a target: how many clusters there are, what each cluster can
execute, how long results take, and what moving a value between two
clusters costs (latency plus the physical resources the transfer
occupies, for contention modelling).

Two concrete models exist: :class:`~repro.machine.vliw.ClusteredVLIW`
(the Chorus infrastructure) and :class:`~repro.machine.raw.RawMachine`
(the MIT Raw processor).
"""

from __future__ import annotations

import abc
from typing import Dict, Sequence, Tuple

import numpy as np

from ..ir.opcode import FuncClass, LatencyModel, Opcode
from .fu import Cluster

#: A physical communication resource occupied during a transfer, e.g. a
#: mesh link ("link", 3, 7) or a transfer unit ("xfer", 2, -1).  Opaque to
#: schedulers; the list scheduler and the simulator only test equality.
CommResource = Tuple[str, int, int]

#: Row of each functional class in :attr:`Machine.class_mask`.
FUNC_CLASS_ROW: Dict[FuncClass, int] = {fc: row for row, fc in enumerate(FuncClass)}


class Machine(abc.ABC):
    """Base class for spatial architecture models.

    Args:
        clusters: The machine's clusters, ordered by index.
        latency_model: Result latencies for operations.
        name: Short label used in reports.
    """

    def __init__(
        self,
        clusters: Sequence[Cluster],
        latency_model: LatencyModel,
        name: str,
    ) -> None:
        if not clusters:
            raise ValueError("a machine needs at least one cluster")
        for i, c in enumerate(clusters):
            if c.index != i:
                raise ValueError(f"cluster {i} has index {c.index}")
        self.clusters: Tuple[Cluster, ...] = tuple(clusters)
        self.latency_model = latency_model
        self.name = name
        # The feasibility table, built once: every scheduler, the
        # RegionIndex and the simulator read placement legality from it.
        self.class_mask: np.ndarray = np.array(
            [[self.can_execute(c, fc) for c in range(len(clusters))] for fc in FuncClass],
            dtype=bool,
        )
        self.class_clusters: Dict[FuncClass, Tuple[int, ...]] = {
            fc: tuple(np.flatnonzero(self.class_mask[row]).tolist())
            for fc, row in FUNC_CLASS_ROW.items()
        }
        self.class_units: Dict[Tuple[int, FuncClass], Tuple[int, ...]] = {
            (c.index, fc): _unit_indices(c, fc) for c in self.clusters for fc in FuncClass
        }

    @property
    def n_clusters(self) -> int:
        """Number of clusters/tiles."""
        return len(self.clusters)

    def latency(self, opcode: Opcode) -> int:
        """Result latency of ``opcode``."""
        return self.latency_model.latency(opcode)

    def can_execute(self, cluster: int, func_class: FuncClass) -> bool:
        """True if ``cluster`` has a unit for ``func_class``.

        Pseudo operations (live-in/live-out markers) execute anywhere.
        This is the definition the feasibility table is built from; hot
        paths read :attr:`class_clusters` / :attr:`class_mask` instead.
        """
        if func_class in (FuncClass.PSEUDO, FuncClass.CONST):
            return True
        return self.clusters[cluster].can_execute(func_class)

    # ------------------------------------------------------------------
    # Communication model
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def comm_latency(self, src: int, dst: int) -> int:
        """Cycles from a value being ready on ``src`` to usable on ``dst``.

        Zero when ``src == dst``.
        """

    @abc.abstractmethod
    def comm_resources(self, src: int, dst: int) -> Sequence[CommResource]:
        """Physical resources a ``src``->``dst`` transfer occupies, in
        order.  Resource ``k`` is busy during cycle ``start + k`` of the
        transfer; two transfers may not hold the same resource in the
        same cycle.
        """

    @abc.abstractmethod
    def distance(self, src: int, dst: int) -> int:
        """Topological distance in hops between two clusters."""

    # ------------------------------------------------------------------
    # Memory model
    # ------------------------------------------------------------------

    #: "hard" = memory ops *must* run on their bank's home cluster (Raw);
    #: "soft" = remote access is legal with :attr:`remote_mem_penalty`.
    memory_affinity: str = "hard"

    #: Extra cycles for a memory op whose bank lives on another cluster
    #: (only meaningful when ``memory_affinity == "soft"``).
    remote_mem_penalty: int = 0

    def bank_home(self, bank: int) -> int:
        """Cluster that owns memory ``bank`` (banks interleave round-robin)."""
        return bank % self.n_clusters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}: {self.n_clusters} clusters>"


def _unit_indices(cluster: Cluster, func_class: FuncClass) -> Tuple[int, ...]:
    """Indices of the units of ``cluster`` that may issue ``func_class``.

    Constants issue on any unit of a cluster that declares no CONST
    unit: :meth:`Machine.can_execute` makes CONST legal everywhere.
    """
    units = tuple(u for u, unit in enumerate(cluster.units) if unit.can_execute(func_class))
    if not units and func_class is FuncClass.CONST:
        return tuple(range(len(cluster.units)))
    return units

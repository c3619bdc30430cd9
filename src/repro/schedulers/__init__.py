"""Schedulers: the shared list scheduler plus all baselines.

* :class:`ListScheduler` — communication-aware list scheduling, used as
  the final step of every algorithm.
* :class:`UnifiedAssignAndSchedule` — the UAS baseline (Ozer et al.).
* :class:`PartialComponentClustering` — the PCC baseline (Desoli).
* :class:`RawccScheduler` — the Rawcc-style space-time scheduler
  (Lee et al., ASPLOS '98).
* :class:`SingleClusterScheduler` — the speedup denominator.
"""

from .base import Scheduler
from .fallback import FallbackAttempt, FallbackChain, FallbackReport
from .list_scheduler import (
    ListScheduler,
    SchedulingError,
    effective_latency,
    feasible_clusters,
)
from .pcc import PartialComponentClustering
from .rawcc import RawccScheduler
from .resources import ReservationTable
from .schedule import CommEvent, Schedule, ScheduledOp
from .single import SingleClusterScheduler
from .uas import UnifiedAssignAndSchedule

__all__ = [
    "CommEvent",
    "FallbackAttempt",
    "FallbackChain",
    "FallbackReport",
    "ListScheduler",
    "PartialComponentClustering",
    "RawccScheduler",
    "ReservationTable",
    "Schedule",
    "ScheduledOp",
    "Scheduler",
    "SchedulingError",
    "SingleClusterScheduler",
    "UnifiedAssignAndSchedule",
    "effective_latency",
    "feasible_clusters",
]

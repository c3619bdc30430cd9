"""Parallel compilation engine with a content-addressed schedule cache.

``repro.engine`` makes whole-suite compilation fast without changing a
single reported number:

* :mod:`~repro.engine.pool` — :class:`CompilationEngine` fans region
  scheduling out over a process pool with index-keyed deterministic
  merge and inline retry of lost tasks;
* :mod:`~repro.engine.cache` — :class:`ScheduleCache`, an in-memory
  LRU with an optional shared on-disk layer, keyed by canonical
  fingerprints;
* :mod:`~repro.engine.fingerprint` — relabeling-invariant content
  addresses for (DDG, machine, scheduler, seed, harness flags)
  requests.

The contract, enforced by ``tests/test_engine.py``: ``jobs=N`` and
warm-cache runs are cycle-identical to an inline ``jobs=1`` run.  A
task whose worker is lost runs again inline in the parent, and a
corrupt disk-cache entry is quarantined and recomputed; see
``docs/resilience.md``.
"""

from .cache import (
    FILE_KIND,
    FILE_VERSION,
    QUARANTINE_DIR,
    CacheHit,
    CacheSpec,
    CacheStats,
    ScheduleCache,
)
from .fingerprint import (
    FINGERPRINT_FIELDS,
    FINGERPRINT_SCHEMA_VERSION,
    Fingerprint,
    canonical_permutation,
    ddg_fingerprint,
    schedule_key,
)
from .pool import (
    CACHE_HIT,
    CACHE_MISS,
    CACHE_OFF,
    CompilationEngine,
    RegionTask,
    TaskOutcome,
    execute_task,
    worker_cache,
)

__all__ = [
    "CACHE_HIT",
    "CACHE_MISS",
    "CACHE_OFF",
    "CacheHit",
    "CacheSpec",
    "CacheStats",
    "CompilationEngine",
    "FILE_KIND",
    "FILE_VERSION",
    "FINGERPRINT_FIELDS",
    "FINGERPRINT_SCHEMA_VERSION",
    "Fingerprint",
    "QUARANTINE_DIR",
    "RegionTask",
    "ScheduleCache",
    "TaskOutcome",
    "canonical_permutation",
    "execute_task",
    "ddg_fingerprint",
    "schedule_key",
    "worker_cache",
]

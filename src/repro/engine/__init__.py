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
warm-cache runs are cycle-identical to an inline ``jobs=1`` run.

PR 6 adds :mod:`~repro.engine.resilience` — deadlines
(:class:`Budget` / :func:`budget_scope`), retry with seeded backoff
(:class:`RetryPolicy`), and per-(scheduler, machine) circuit breakers
(:class:`CircuitBreaker` / :class:`BreakerBoard`) — wired into the
engine through :class:`ResilienceConfig`; see ``docs/resilience.md``.
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
from .resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BreakerBoard,
    Budget,
    CircuitBreaker,
    DeadlineExceeded,
    ResilienceConfig,
    RetryPolicy,
    active_budget,
    budget_scope,
)

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BreakerBoard",
    "Budget",
    "CACHE_HIT",
    "CACHE_MISS",
    "CACHE_OFF",
    "CacheHit",
    "CacheSpec",
    "CacheStats",
    "CircuitBreaker",
    "CompilationEngine",
    "DeadlineExceeded",
    "FILE_KIND",
    "FILE_VERSION",
    "FINGERPRINT_FIELDS",
    "FINGERPRINT_SCHEMA_VERSION",
    "Fingerprint",
    "QUARANTINE_DIR",
    "RegionTask",
    "ResilienceConfig",
    "RetryPolicy",
    "ScheduleCache",
    "TaskOutcome",
    "active_budget",
    "budget_scope",
    "canonical_permutation",
    "execute_task",
    "ddg_fingerprint",
    "schedule_key",
    "worker_cache",
]

"""Resilience primitives: deadlines, retry policy, circuit breakers.

The compilation engine (:mod:`repro.engine.pool`) guarantees *results*
— zero lost regions, deterministic merge — but PR 5's engine had no
notion of *time* or *partial failure*: a hung pass stalled a campaign
forever, and the only retry was a one-shot inline fallback.  This
module supplies the missing substrate:

* :class:`Budget` / :exc:`DeadlineExceeded` — a per-task compile
  deadline, enforced **cooperatively**: long-running pipeline stages
  (the convergent pass loop, chaos passes) call :meth:`Budget.check`
  and raise when the deadline has passed.  The ambient budget is
  installed per task via :func:`budget_scope` and read with
  :func:`active_budget`, so deep pipeline layers need no plumbing.
* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *deterministic* seeded jitter (the jitter is a hash of the seed, the
  task key, and the attempt number — no global RNG, so campaigns
  replay exactly).  Errors are classified retryable (infrastructure:
  a lost worker, a broken pipe) vs. terminal (the task itself failed —
  retrying a deterministic scheduler cannot help).
* :class:`CircuitBreaker` / :class:`BreakerBoard` — a per-
  (scheduler, machine) breaker that trips after N consecutive primary-
  scheduler failures or timeouts and routes subsequent tasks straight
  to the next :class:`~repro.schedulers.fallback.FallbackChain` member
  (``min_level``), with half-open probes to recover.  One pathological
  cell can no longer burn a whole campaign's budget.
* :class:`ResilienceConfig` — the bundle a
  :class:`~repro.engine.pool.CompilationEngine` is configured with.
  ``resilience=None`` (the default) runs the engine under the null
  policy :data:`~repro.engine.pool.NO_RESILIENCE`; every feature here
  is strictly opt-in.

Everything in this module is stdlib-only and import-cycle-free: the
core pipeline (:mod:`repro.core`) imports it lazily inside functions.
"""

from __future__ import annotations

import contextlib
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

#: Circuit-breaker states (see :class:`CircuitBreaker`).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class DeadlineExceeded(RuntimeError):
    """A task overran its compile :class:`Budget`.

    Deliberately *terminal* for the retry policy (re-running the same
    deterministic work cannot make it faster) and deliberately **not**
    absorbed by :class:`~repro.core.guard.PassGuard` (a rollback must
    not swallow the deadline): it propagates out of the convergent
    pipeline so a :class:`~repro.schedulers.fallback.FallbackChain`
    can degrade to a cheaper scheduler instead.
    """


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------


@dataclass
class Budget:
    """A wall-clock compile budget for one task.

    Args:
        deadline_s: Seconds this task may spend, measured from
            construction (``started`` defaults to *now*).
        started: Override the start instant (``time.perf_counter``
            domain); tests use this to fabricate expired budgets.
    """

    deadline_s: float
    started: float = field(default_factory=time.perf_counter)

    def elapsed(self) -> float:
        """Seconds spent since the budget started."""
        return time.perf_counter() - self.started

    def remaining(self) -> float:
        """Seconds left before the deadline (negative when overrun)."""
        return self.deadline_s - self.elapsed()

    @property
    def expired(self) -> bool:
        """True once the deadline has passed."""
        return self.remaining() <= 0.0

    def check(self, where: str = "") -> None:
        """Raise :exc:`DeadlineExceeded` when the budget is spent.

        Args:
            where: Label for the enforcement point (pass name, pipeline
                stage) included in the exception message.

        Raises:
            DeadlineExceeded: When ``elapsed() >= deadline_s``.
        """
        if self.expired:
            at = f" at {where}" if where else ""
            raise DeadlineExceeded(
                f"compile budget of {self.deadline_s:.3f}s exceeded"
                f"{at} ({self.elapsed():.3f}s elapsed)"
            )


#: The ambient per-task budget; installed by :func:`budget_scope`.
_ACTIVE_BUDGET: Optional[Budget] = None


def active_budget() -> Optional[Budget]:
    """The budget of the task executing in this process, or ``None``.

    Long-running pipeline stages poll this between units of work and
    call :meth:`Budget.check`; with no budget installed (the default)
    the poll is a single global read — deadline support is free when
    unused.
    """
    return _ACTIVE_BUDGET


@contextlib.contextmanager
def budget_scope(budget: Optional[Budget]) -> Iterator[Optional[Budget]]:
    """Install ``budget`` as the ambient budget for the ``with`` body.

    Scopes nest: the previous budget is restored on exit, so an inner
    sub-task can run under a tighter budget without disturbing the
    outer one.

    Args:
        budget: The budget to install; ``None`` clears the scope.

    Yields:
        The installed budget, for convenience.
    """
    global _ACTIVE_BUDGET
    previous = _ACTIVE_BUDGET
    _ACTIVE_BUDGET = budget
    try:
        yield budget
    finally:
        _ACTIVE_BUDGET = previous


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------

#: Exception types worth retrying: infrastructure failures where a
#: fresh attempt can genuinely succeed (a respawned worker, a reopened
#: pipe).  Checked by name as well so the classification survives
#: pickling across processes.
_RETRYABLE_NAMES = frozenset(
    {"BrokenProcessPool", "BrokenExecutor", "EOFError", "ConnectionResetError"}
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    The jitter is a pure function of ``(seed, key, attempt)`` — no
    global RNG is consulted — so a seeded campaign schedules byte-
    identical backoffs on every replay.

    Args:
        max_attempts: Total attempts per task (first try included);
            must be >= 1.
        base_delay_s: Backoff before the second attempt; doubles (by
            ``multiplier``) each further attempt.  0 disables sleeping.
        multiplier: Exponential growth factor per attempt.
        jitter: Fraction of the base delay added as deterministic
            jitter (0 = none, 0.5 = up to +50%).
        seed: Seeds the jitter hash.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def delay_for(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt`` (2 = first retry).

        Args:
            attempt: The attempt about to run (>= 2 for retries).
            key: Stable task identity mixed into the jitter so
                concurrent retries do not thunder in lockstep.

        Returns:
            Seconds to sleep; 0.0 when backoff is disabled.
        """
        if self.base_delay_s <= 0.0:
            return 0.0
        base = self.base_delay_s * self.multiplier ** max(attempt - 2, 0)
        token = f"{self.seed}:{key}:{attempt}".encode("utf-8")
        fraction = (zlib.crc32(token) % 1000) / 999.0
        return base * (1.0 + self.jitter * fraction)

    def is_retryable(self, exc: BaseException) -> bool:
        """Classify one failure: infrastructure (retry) vs. terminal.

        Args:
            exc: The exception an attempt raised.

        Returns:
            True for lost-worker/IPC failures; False for everything
            else — most importantly :exc:`DeadlineExceeded` and
            scheduler/verifier failures, which are deterministic.
        """
        if isinstance(exc, DeadlineExceeded):
            return False
        if isinstance(exc, (EOFError, ConnectionError, BrokenPipeError)):
            return True
        if isinstance(exc, OSError):
            return True
        return type(exc).__name__ in _RETRYABLE_NAMES


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


@dataclass
class CircuitBreaker:
    """Trip after consecutive primary failures; recover by probing.

    State machine (classic three-state breaker):

    * **closed** — primary scheduler runs normally; ``failure_threshold``
      *consecutive* failures/timeouts trip the breaker;
    * **open** — tasks are routed past the primary (``route()`` returns
      a fallback floor of 1) for ``cooldown_tasks`` tasks;
    * **half-open** — after the cooldown, one task probes the primary:
      success closes the breaker, failure re-opens it for another
      cooldown.

    Args:
        failure_threshold: Consecutive failures that trip the breaker.
        cooldown_tasks: Routed tasks to skip before the next probe
            (cooldown is task-count based, not wall-clock, so seeded
            campaigns replay identically at any speed).
    """

    failure_threshold: int = 3
    cooldown_tasks: int = 8
    state: str = BREAKER_CLOSED
    consecutive_failures: int = 0
    trips: int = 0
    probes: int = 0
    resets: int = 0
    _cooldown_left: int = 0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_tasks < 1:
            raise ValueError("cooldown_tasks must be >= 1")

    def route(self) -> int:
        """Fallback floor for the next task (0 = run the primary).

        Advances the open-state cooldown; the call that exhausts it
        transitions to half-open and lets the task through as a probe.
        """
        if self.state == BREAKER_OPEN:
            self._cooldown_left -= 1
            if self._cooldown_left > 0:
                return 1
            self.state = BREAKER_HALF_OPEN
            self.probes += 1
        return 0

    def record(self, primary_ok: bool) -> None:
        """Report one task's primary-scheduler outcome.

        Only call for tasks that actually ran the primary (i.e.
        :meth:`route` returned 0 for them).

        Args:
            primary_ok: True when the primary member produced the
                result (no timeout, no fallback).
        """
        if primary_ok:
            if self.state == BREAKER_HALF_OPEN:
                self.resets += 1
            self.state = BREAKER_CLOSED
            self.consecutive_failures = 0
            return
        self.consecutive_failures += 1
        if (
            self.state == BREAKER_HALF_OPEN
            or self.consecutive_failures >= self.failure_threshold
        ):
            self.trips += 1
            self.state = BREAKER_OPEN
            self._cooldown_left = self.cooldown_tasks
            self.consecutive_failures = 0


class BreakerBoard:
    """Per-(scheduler, machine) circuit breakers for one engine.

    Args:
        failure_threshold: Forwarded to each :class:`CircuitBreaker`.
        cooldown_tasks: Forwarded to each :class:`CircuitBreaker`.
    """

    def __init__(self, failure_threshold: int = 3, cooldown_tasks: int = 8) -> None:
        self.failure_threshold = failure_threshold
        self.cooldown_tasks = cooldown_tasks
        self._breakers: Dict[Tuple[str, str], CircuitBreaker] = {}

    def breaker(self, scheduler_name: str, machine_name: str) -> CircuitBreaker:
        """The breaker for one (scheduler, machine) cell, created lazily.

        Args:
            scheduler_name: ``Scheduler.name`` of the task's scheduler.
            machine_name: ``Machine.name`` of the task's target.

        Returns:
            The shared :class:`CircuitBreaker` for that cell.
        """
        key = (scheduler_name, machine_name)
        if key not in self._breakers:
            self._breakers[key] = CircuitBreaker(
                failure_threshold=self.failure_threshold,
                cooldown_tasks=self.cooldown_tasks,
            )
        return self._breakers[key]

    @property
    def total_trips(self) -> int:
        """Breaker trips across every cell."""
        return sum(b.trips for b in self._breakers.values())

    def snapshot(self) -> Dict[str, str]:
        """Cell -> state map for reports (``"scheduler@machine"`` keys)."""
        return {
            f"{s}@{m}": b.state for (s, m), b in sorted(self._breakers.items())
        }


# ----------------------------------------------------------------------
# The config bundle
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything a resilient :class:`~repro.engine.pool.CompilationEngine` needs.

    Args:
        deadline_s: Default per-task compile budget; ``None`` disables
            deadlines (tasks may still carry their own).
        kill_tolerance_s: Grace period past the deadline before the
            parent preemptively kills the worker running an
            uncooperative (truly hung) task.
        retry: The :class:`RetryPolicy` for infrastructure failures.
        breaker_enabled: Route tasks past a tripped primary scheduler.
        breaker_threshold: Consecutive failures that trip a breaker.
        breaker_cooldown: Tasks routed away before a half-open probe.
        max_pool_respawns: Worker-pool rebuilds after kills/crashes
            before the engine gives up on the pool and finishes the
            run inline (results are still complete — only throughput
            degrades).
    """

    deadline_s: Optional[float] = None
    kill_tolerance_s: float = 0.75
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_enabled: bool = True
    breaker_threshold: int = 3
    breaker_cooldown: int = 8
    max_pool_respawns: int = 4

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive when set")
        if self.kill_tolerance_s < 0:
            raise ValueError("kill_tolerance_s must be >= 0")
        if self.max_pool_respawns < 0:
            raise ValueError("max_pool_respawns must be >= 0")

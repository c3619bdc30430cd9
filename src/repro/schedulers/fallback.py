"""Degrading scheduler chain: always return a *validated* schedule.

The guarded convergent pipeline already survives misbehaving passes by
rollback and quarantine, but a scheduler can still fail outright — an
infeasible assignment, an exception in extraction, a schedule the
simulator rejects.  :class:`FallbackChain` turns that hard failure into
graceful degradation: it tries each scheduler in order, validates every
candidate schedule with the simulator, and returns the first one that
passes.  The default chain mirrors the robustness ladder of the paper's
framework:

1. **convergent** — full preference-map scheduling (guarded);
2. **list** — plain greedy list scheduling with on-the-fly cluster
   choice (the UAS strategy, no preference matrix to corrupt);
3. **single** — everything on cluster 0, the always-legal reference
   (skipped automatically when hard constraints make it illegal).

``last_level`` / ``last_report`` record how far down the chain the most
recent region had to fall, so the harness can surface degradations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..ir.regions import Region
from ..machine.machine import Machine
from .base import Scheduler
from .list_scheduler import SchedulingError
from .schedule import Schedule
from .single import SingleClusterScheduler
from .uas import UnifiedAssignAndSchedule


@dataclass
class FallbackAttempt:
    """Outcome of one scheduler in the chain for one region."""

    scheduler_name: str
    level: int
    ok: bool
    error: Optional[str] = None


@dataclass
class FallbackReport:
    """Everything the chain did for the most recent region."""

    region_name: str
    attempts: List[FallbackAttempt] = field(default_factory=list)

    @property
    def level(self) -> int:
        """Degradation level: 0 = primary scheduler succeeded."""
        for attempt in self.attempts:
            if attempt.ok:
                return attempt.level
        return len(self.attempts)

    @property
    def degraded(self) -> bool:
        """True when the primary scheduler did not produce the result."""
        return self.level > 0

    def describe(self) -> str:
        """One line per attempt, for logs and CLI output."""
        lines = []
        for attempt in self.attempts:
            status = "ok" if attempt.ok else f"failed: {attempt.error}"
            lines.append(
                f"level {attempt.level} ({attempt.scheduler_name}): {status}"
            )
        return "\n".join(lines)


class FallbackChain(Scheduler):
    """Try schedulers in order until one yields a simulator-valid schedule.

    Args:
        schedulers: Chain members, most capable first.  ``None`` builds
            the default convergent → list → single-cluster ladder.
        check_values: Also replay dataflow during validation (slower;
            structural validation alone already guarantees legality).

    Raises:
        SchedulingError: Only when *every* scheduler in the chain fails —
            with the per-level errors in the message.
    """

    name = "fallback"

    def __init__(
        self,
        schedulers: Optional[Sequence[Scheduler]] = None,
        check_values: bool = False,
    ) -> None:
        if schedulers is None:
            from ..core.convergent import ConvergentScheduler

            schedulers = (
                ConvergentScheduler(),
                UnifiedAssignAndSchedule(),
                SingleClusterScheduler(),
            )
        if not schedulers:
            raise ValueError("fallback chain needs at least one scheduler")
        self.schedulers: List[Scheduler] = list(schedulers)
        self.check_values = check_values
        self.last_report: Optional[FallbackReport] = None

    @property
    def last_level(self) -> Optional[int]:
        """Degradation level of the most recent region (0 = no fallback)."""
        return self.last_report.level if self.last_report else None

    def schedule(self, region: Region, machine: Machine) -> Schedule:
        """First simulator-validated schedule down the chain."""
        from ..sim.simulator import simulate

        report = FallbackReport(region_name=region.name)
        self.last_report = report
        for level, scheduler in enumerate(self.schedulers):
            try:
                schedule = scheduler.schedule(region, machine)
                verdict = simulate(
                    region,
                    machine,
                    schedule,
                    strict=False,
                    check_values=self.check_values,
                )
                if not verdict.ok:
                    raise SchedulingError(
                        "; ".join(verdict.errors[:3]) or "validation failed"
                    )
            except Exception as exc:  # noqa: BLE001 - chain absorbs failures
                report.attempts.append(
                    FallbackAttempt(
                        scheduler_name=scheduler.name,
                        level=level,
                        ok=False,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            report.attempts.append(
                FallbackAttempt(scheduler_name=scheduler.name, level=level, ok=True)
            )
            return schedule
        raise SchedulingError(
            f"every scheduler in the fallback chain failed for region "
            f"{region.name!r} on {machine.name!r}:\n{report.describe()}"
        )

"""Fault tolerance for the convergent pass pipeline.

The paper's robustness claim — "a mis-tuned pass sequence can degrade
performance, never correctness" — is made literal here.  Every pass in
:meth:`ConvergentScheduler.converge <repro.core.convergent.ConvergentScheduler.converge>`
runs under a :class:`PassGuard`:

1. the preference matrix is checkpointed before the pass;
2. the pass runs; exceptions are caught, and the post-pass matrix is
   screened with :meth:`PreferenceMatrix.health
   <repro.core.weights.PreferenceMatrix.health>` (NaN/Inf, negative
   weights, all-zero rows);
3. on any failure the matrix is rolled back to the checkpoint, the
   event is appended to :attr:`PassGuard.events` (the run's one list of
   interventions, which the :class:`~repro.core.metrics.ConvergenceTrace`
   reads), and the run continues with the next pass;
4. a pass that keeps failing is **quarantined** — skipped for the rest
   of the run — so iterative application does not pay for a known-bad
   heuristic every round.

On the happy path the guard only adds a checkpoint copy, a health scan
and a post-pass normalize that divides only the rows not already
summing to exactly 1.0 (most rows: the pass's kernel normalized just
before); it never changes what a well-behaved sequence computes, so
guarded scheduling is cycle-for-cycle identical to unguarded scheduling
when no pass misbehaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .passes import PassContext, SchedulingPass
from .weights import PreferenceMatrix


@dataclass
class GuardEvent:
    """One guard intervention.

    Attributes:
        pass_name: Name of the offending pass.
        round_index: Zero-based iteration of the pass sequence.
        kind: ``"exception"``, ``"health"``, or ``"quarantine"``.
        detail: The exception text or health violation description.
        recovered: True when the matrix was rolled back successfully
            (always, unless the checkpoint itself failed to restore).
    """

    pass_name: str
    round_index: int
    kind: str
    detail: str
    recovered: bool = True

    def describe(self) -> str:
        """Human-readable one-liner for reports and traces."""
        action = "quarantined" if self.kind == "quarantine" else "rolled back"
        return (
            f"{self.pass_name} (round {self.round_index}): "
            f"{self.kind} — {self.detail} [{action}]"
        )


@dataclass
class PassGuard:
    """Checkpoint/rollback wrapper around scheduling passes.

    One guard instance covers one :meth:`converge` call; failure counts
    accumulate across iterations of the pass sequence so a repeatedly
    failing pass crosses ``quarantine_after`` and is skipped thereafter.

    Args:
        quarantine_after: Number of failures (of the same pass) after
            which the pass is quarantined for the rest of the run.
    """

    quarantine_after: int = 2
    events: List[GuardEvent] = field(default_factory=list)
    failure_counts: Dict[str, int] = field(default_factory=dict)
    _quarantined: Set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")

    # ------------------------------------------------------------------

    def is_quarantined(self, scheduling_pass: SchedulingPass) -> bool:
        """True when ``scheduling_pass`` has been quarantined."""
        return scheduling_pass.name in self._quarantined

    @property
    def quarantined(self) -> List[str]:
        """Names of quarantined passes, in quarantine order."""
        return [
            e.pass_name for e in self.events if e.kind == "quarantine"
        ]

    @property
    def n_failures(self) -> int:
        """Total rollback events (quarantine markers excluded)."""
        return sum(1 for e in self.events if e.kind != "quarantine")

    # ------------------------------------------------------------------

    def run(
        self,
        scheduling_pass: SchedulingPass,
        ctx: PassContext,
        round_index: int = 0,
    ) -> Optional[GuardEvent]:
        """Run one pass under checkpoint/rollback protection.

        The matrix is left normalized either way: on success via the
        usual post-pass :meth:`normalize`, on failure because the
        checkpoint predates the pass (and was itself normalized).

        Args:
            scheduling_pass: The pass to apply.
            ctx: The :class:`PassContext` holding the matrix to protect.
            round_index: Which repetition of the sequence is running
                (recorded on any resulting :class:`GuardEvent`).

        Returns:
            ``None`` on success, or the :class:`GuardEvent` that was
            recorded when the pass failed and the matrix was rolled
            back.
        """
        matrix: PreferenceMatrix = ctx.matrix
        token = matrix.checkpoint()
        failure: Optional[str] = None
        kind = "exception"
        try:
            scheduling_pass.apply(ctx)
        except Exception as exc:  # noqa: BLE001 - the guard's whole point
            failure = f"{type(exc).__name__}: {exc}"
        else:
            issue = matrix.health()
            if issue is not None:
                kind = "health"
                failure = issue
        if failure is None:
            matrix.normalize()
            return None
        matrix.restore(token)
        event = GuardEvent(
            pass_name=scheduling_pass.name,
            round_index=round_index,
            kind=kind,
            detail=failure,
        )
        self.events.append(event)
        count = self.failure_counts.get(scheduling_pass.name, 0) + 1
        self.failure_counts[scheduling_pass.name] = count
        if count >= self.quarantine_after:
            self._quarantined.add(scheduling_pass.name)
            self.events.append(
                GuardEvent(
                    pass_name=scheduling_pass.name,
                    round_index=round_index,
                    kind="quarantine",
                    detail=f"failed {count} time(s); skipped from here on",
                )
            )
        return event

"""Convergence instrumentation (Figures 4, 7, and 9).

The tracker snapshots the preference matrix after every pass and
records, per pass, the fraction of instructions whose *preferred
cluster* changed — the metric plotted in the paper's Figures 7 and 9.
It can also retain full matrix copies to render Figure-4 style
preference-map frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from .weights import PreferenceMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .guard import GuardEvent, PassGuard


@dataclass
class PassRecord:
    """Convergence data for one executed pass.

    Traced runs carry the rest of a pass's diagnostics (wall time, L1
    churn, flips, entropy, confidence) on its ``pass:<NAME>`` span, not
    here.

    Attributes:
        pass_name: Table-1 name of the pass.
        changed_fraction: Fraction of instructions whose preferred
            cluster differs from before the pass.
        spatial_only: True if the pass may change spatial preferences
            (Figures 7/9 exclude passes that only touch time).
        snapshot: Full matrix copy, when snapshotting is enabled.
    """

    pass_name: str
    changed_fraction: float
    spatial_only: bool = True
    snapshot: Optional[PreferenceMatrix] = None


#: Passes that only modify temporal preferences; the paper's convergence
#: plots exclude them.
TEMPORAL_ONLY_PASSES = frozenset({"INITTIME", "EMPHCP"})


def _preferred(matrix: PreferenceMatrix) -> np.ndarray:
    """Preferred cluster of every instruction, as an ``(N,)`` array."""
    preferred: np.ndarray = np.argmax(matrix.cluster_marginals(), axis=1)
    return preferred


@dataclass
class ConvergenceTrace:
    """Preferred-cluster churn across a pass sequence."""

    records: List[PassRecord] = field(default_factory=list)
    keep_snapshots: bool = False
    #: The guard that supervised the run, whose :attr:`PassGuard.events
    #: <repro.core.guard.PassGuard.events>` are the run's one list of
    #: interventions; ``None`` when guarding was disabled.
    guard: Optional["PassGuard"] = None
    #: Instructions whose preferred cluster the last observed pass
    #: changed (the numerator of its ``changed_fraction``).
    last_flips: int = 0
    #: Preferred clusters after the last observed pass (private state,
    #: left out of ``==`` because an array has no single truth value).
    _last_preferred: Optional[np.ndarray] = field(default=None, compare=False)

    def observe_initial(self, matrix: PreferenceMatrix) -> None:
        """Record the preferred clusters before any pass runs."""
        self._last_preferred = _preferred(matrix)
        if self.keep_snapshots:
            self.records.append(
                PassRecord("initial", 0.0, snapshot=matrix.copy())
            )

    def observe_pass(self, pass_name: str, matrix: PreferenceMatrix) -> PassRecord:
        """Record churn caused by the pass that just ran.

        Args:
            pass_name: Name of the pass that was applied.
            matrix: The preference matrix after the pass (and its
                post-pass normalization).

        Returns:
            The appended :class:`PassRecord`.
        """
        preferred = _preferred(matrix)
        if self._last_preferred is None or not preferred.size:
            self.last_flips = 0
            changed = 0.0
        else:
            self.last_flips = int(np.count_nonzero(self._last_preferred != preferred))
            changed = self.last_flips / preferred.size
        self._last_preferred = preferred
        record = PassRecord(
            pass_name=pass_name,
            changed_fraction=changed,
            spatial_only=pass_name not in TEMPORAL_ONLY_PASSES,
            snapshot=matrix.copy() if self.keep_snapshots else None,
        )
        self.records.append(record)
        return record

    @property
    def guard_events(self) -> List["GuardEvent"]:
        """Guard interventions (rollbacks, quarantines) in execution order.

        Read from the guard, not copied: they live beside
        :attr:`records`, not inside them, so the Figure 7/9 churn series
        is unaffected by failed passes — a rolled-back pass by
        definition changed nothing.  Empty on a fault-free or unguarded
        run.
        """
        return self.guard.events if self.guard is not None else []

    @property
    def degraded(self) -> bool:
        """True when any guard intervention happened during the run."""
        return bool(self.guard_events)

    def spatial_records(self) -> List[PassRecord]:
        """Records for spatially active passes (the Figure 7/9 series)."""
        return [r for r in self.records if r.spatial_only and r.pass_name != "initial"]

    def series(self) -> List[float]:
        """The changed-fraction series for spatially active passes."""
        return [r.changed_fraction for r in self.spatial_records()]

    def render(self, label: str = "") -> str:
        """ASCII sparkline of the convergence series."""
        records = self.spatial_records()
        lines = [f"convergence {label}".rstrip()]
        for r in records:
            bar = "#" * int(round(r.changed_fraction * 40))
            lines.append(f"  {r.pass_name:10s} {r.changed_fraction:6.2%} |{bar}")
        for event in self.guard_events:
            lines.append(f"  ! {event.describe()}")
        return "\n".join(lines)

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
    from .guard import GuardEvent


@dataclass
class PassRecord:
    """Convergence data for one executed pass.

    Attributes:
        pass_name: Table-1 name of the pass.
        changed_fraction: Fraction of instructions whose preferred
            cluster differs from before the pass.
        spatial_only: True if the pass may change spatial preferences
            (Figures 7/9 exclude passes that only touch time).
        snapshot: Full matrix copy, when snapshotting is enabled.
        wall_seconds: Pass wall time; populated only when the driver
            runs under a real tracer (0.0 otherwise).
        l1_churn: Mean per-instruction L1 weight movement caused by the
            pass (tracer-enabled runs only).
        flips: Count of instructions whose preferred cluster changed
            (the numerator of ``changed_fraction``; tracer runs only).
        mean_entropy: Mean normalized spatial entropy after the pass
            (tracer-enabled runs only).
        mean_confidence: Mean clamped confidence after the pass
            (tracer-enabled runs only).
    """

    pass_name: str
    changed_fraction: float
    spatial_only: bool = True
    snapshot: Optional[PreferenceMatrix] = None
    wall_seconds: float = 0.0
    l1_churn: float = 0.0
    flips: int = 0
    mean_entropy: float = 0.0
    mean_confidence: float = 0.0

    def to_dict(self) -> dict:
        """JSON-safe representation (snapshots are never serialized)."""
        return {
            "kind": "pass",
            "pass_name": self.pass_name,
            "changed_fraction": self.changed_fraction,
            "spatial_only": self.spatial_only,
            "wall_seconds": self.wall_seconds,
            "l1_churn": self.l1_churn,
            "flips": self.flips,
            "mean_entropy": self.mean_entropy,
            "mean_confidence": self.mean_confidence,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PassRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            pass_name=data["pass_name"],
            changed_fraction=float(data["changed_fraction"]),
            spatial_only=bool(data.get("spatial_only", True)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            l1_churn=float(data.get("l1_churn", 0.0)),
            flips=int(data.get("flips", 0)),
            mean_entropy=float(data.get("mean_entropy", 0.0)),
            mean_confidence=float(data.get("mean_confidence", 0.0)),
        )


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
    #: Guard interventions (rollbacks, quarantines) in execution order;
    #: empty on a fault-free run.
    guard_events: List["GuardEvent"] = field(default_factory=list)
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
            The appended :class:`PassRecord`, which the caller may
            enrich further (e.g. with tracer-derived wall time).
        """
        preferred = _preferred(matrix)
        if self._last_preferred is None or not preferred.size:
            changed = 0.0
        else:
            changed = (
                int(np.count_nonzero(self._last_preferred != preferred)) / preferred.size
            )
        self._last_preferred = preferred
        record = PassRecord(
            pass_name=pass_name,
            changed_fraction=changed,
            spatial_only=pass_name not in TEMPORAL_ONLY_PASSES,
            snapshot=matrix.copy() if self.keep_snapshots else None,
        )
        self.records.append(record)
        return record

    def observe_guard_event(self, event: "GuardEvent") -> None:
        """Record a guard intervention (rollback or quarantine).

        Guard events live beside :attr:`records`, not inside them, so
        the Figure 7/9 churn series is unaffected by failed passes —
        a rolled-back pass by definition changed nothing.
        """
        self.guard_events.append(event)

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

    # ------------------------------------------------------------------
    # JSONL round-trip
    # ------------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per line: pass records, then guard events.

        Snapshots are dropped (they are debugging state, not data);
        everything else — including the tracer-populated churn/entropy/
        confidence/time fields — survives :meth:`from_jsonl` exactly.
        """
        import json

        lines = [json.dumps(r.to_dict(), sort_keys=True) for r in self.records]
        for event in self.guard_events:
            lines.append(json.dumps(event.to_dict(), sort_keys=True))
        return "\n".join(lines)

    @classmethod
    def from_jsonl(cls, text: str) -> "ConvergenceTrace":
        """Rebuild a trace from :meth:`to_jsonl` output."""
        import json

        from .guard import GuardEvent

        trace = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            if data.get("kind") == "guard":
                trace.guard_events.append(GuardEvent.from_dict(data))
            else:
                trace.records.append(PassRecord.from_dict(data))
        if trace.records:
            trace._last_preferred = None  # snapshots were not serialized
        return trace

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

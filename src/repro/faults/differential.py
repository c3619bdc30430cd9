"""Differential verifier-vs-simulator campaigns.

The static verifier (:mod:`repro.verify`) and the simulator
(:mod:`repro.sim`) are independent implementations of the same legality
rules.  This module plays them against each other over schedules with
*known* ground truth:

* every **clean** schedule (straight from a scheduler) must pass both —
  any verifier ERROR here is a false positive and fails the campaign;
* every **corrupted** schedule (:mod:`repro.faults.corrupt`) must be
  flagged by the verifier with at least one ERROR, including one of the
  codes the corruption was built to trigger.

The simulator's verdict on each corrupted schedule is recorded as a
cross-check statistic (:attr:`DifferentialTrial.simulator_rejects`) but
does not gate the campaign: some corruptions (e.g. a pinned instruction
moved off its bank with no remote readers) are invisible to dynamic
replay, which is exactly why the static verifier exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..ir.regions import Region
from ..machine.machine import Machine
from ..schedulers.base import Scheduler
from ..schedulers.schedule import Schedule
from .corrupt import CORRUPTION_REGISTRY, EXPECTED_CODES, corrupt_schedule


@dataclass
class DifferentialTrial:
    """One corrupted schedule and both oracles' verdicts.

    Attributes:
        trial: Trial index within the campaign.
        region_name: Region whose schedule was corrupted.
        kind: Corruption kind (:data:`~repro.faults.corrupt.
            CORRUPTION_REGISTRY` key).
        codes: Distinct diagnostic codes the verifier reported.
        flagged: True when the verifier reported at least one ERROR.
        expected: Codes the corruption is built to trigger.
        expected_hit: True when ``codes`` contains one of ``expected``.
        simulator_rejects: True when dynamic replay also rejected the
            corrupted schedule (informational cross-check).
    """

    trial: int
    region_name: str
    kind: str
    codes: List[str]
    flagged: bool
    expected: Tuple[str, ...]
    expected_hit: bool
    simulator_rejects: bool

    @property
    def ok(self) -> bool:
        """True when the verifier flagged the corruption as built."""
        return self.flagged and self.expected_hit


@dataclass
class DifferentialReport:
    """Aggregate of one differential campaign.

    Attributes:
        machine_name: Target machine.
        seed: Campaign seed (same seed, same campaign).
        trials: One entry per corrupted schedule.
        false_positives: ``region: codes`` strings for clean schedules
            the verifier wrongly flagged (must be empty).
        n_clean: Number of clean baseline schedules checked.
    """

    machine_name: str
    seed: int
    trials: List[DifferentialTrial] = field(default_factory=list)
    false_positives: List[str] = field(default_factory=list)
    n_clean: int = 0

    @property
    def n_trials(self) -> int:
        """Number of corrupted-schedule trials."""
        return len(self.trials)

    @property
    def missed(self) -> List[DifferentialTrial]:
        """Corruptions the verifier failed to flag as built."""
        return [t for t in self.trials if not t.ok]

    @property
    def n_sim_agree(self) -> int:
        """Corrupted schedules the simulator also rejected."""
        return sum(1 for t in self.trials if t.simulator_rejects)

    @property
    def ok(self) -> bool:
        """True when no false positives and every corruption was caught."""
        return not self.false_positives and not self.missed

    def render(self) -> str:
        """Plain-text campaign summary."""
        lines = [
            f"differential campaign on {self.machine_name} "
            f"(seed {self.seed}): {self.n_clean} clean schedules, "
            f"{self.n_trials} corrupted",
            f"  false positives:   {len(self.false_positives)}",
            f"  corruptions caught: {self.n_trials - len(self.missed)}"
            f"/{self.n_trials}",
            f"  simulator agrees:  {self.n_sim_agree}/{self.n_trials}",
        ]
        for entry in self.false_positives[:5]:
            lines.append(f"  FALSE POSITIVE {entry}")
        for t in self.missed[:5]:
            lines.append(
                f"  MISSED trial {t.trial} ({t.kind} in {t.region_name}): "
                f"verifier reported {t.codes or 'nothing'}, "
                f"expected one of {list(t.expected)}"
            )
        return "\n".join(lines)


def run_differential_campaign(
    machine: Machine,
    regions: Sequence[Region],
    n_trials: int = 60,
    seed: int = 0,
    scheduler: Optional[Scheduler] = None,
    kinds: Optional[Sequence[str]] = None,
) -> DifferentialReport:
    """Corrupt known-good schedules and demand the verifier flags each.

    Args:
        machine: Target machine model.
        regions: Pool of regions; each is scheduled once (the clean
            baseline) and then corrupted across trials.
        n_trials: Number of corrupted schedules to produce.
        seed: Seeds every random choice (region, kind, victim).
        scheduler: Produces the clean baselines; default
            :class:`~repro.core.convergent.ConvergentScheduler`.
        kinds: Subset of :data:`~repro.faults.corrupt.
            CORRUPTION_REGISTRY` keys; default all.

    Returns:
        The :class:`DifferentialReport`; the campaign passes iff
        ``report.ok``.

    Raises:
        ValueError: If ``regions`` is empty or no baseline could be
            scheduled.
    """
    from ..sim.simulator import simulate
    from ..verify import verify_schedule

    if not regions:
        raise ValueError("differential campaign needs at least one region")
    if scheduler is None:
        from ..core.convergent import ConvergentScheduler

        scheduler = ConvergentScheduler()
    kind_pool = list(kinds) if kinds else sorted(CORRUPTION_REGISTRY)
    rng = np.random.default_rng(seed)
    report = DifferentialReport(machine_name=machine.name, seed=seed)

    baselines: List[Tuple[Region, Schedule]] = []
    for region in regions:
        schedule = scheduler.schedule(region, machine)
        clean = verify_schedule(region, machine, schedule)
        report.n_clean += 1
        if not clean.ok:
            report.false_positives.append(
                f"{region.name}: {clean.codes()}"
            )
            continue
        baselines.append((region, schedule))
    if not baselines:
        raise ValueError("no region produced a clean baseline schedule")

    for trial in range(n_trials):
        region, schedule = baselines[int(rng.integers(0, len(baselines)))]
        order = list(rng.permutation(len(kind_pool)))
        corrupted = None
        kind = kind_pool[0]
        for pos in order:
            kind = kind_pool[int(pos)]
            corrupted = corrupt_schedule(schedule, region, machine, kind, rng)
            if corrupted is not None:
                break
        if corrupted is None:
            continue  # no corruption applies to this (tiny) schedule
        verdict = verify_schedule(region, machine, corrupted)
        sim = simulate(region, machine, corrupted, strict=False, check_values=False)
        expected = EXPECTED_CODES[kind]
        codes = verdict.codes()
        report.trials.append(
            DifferentialTrial(
                trial=trial,
                region_name=region.name,
                kind=kind,
                codes=codes,
                flagged=not verdict.ok,
                expected=expected,
                expected_hit=any(c in expected for c in codes),
                simulator_rejects=not sim.ok,
            )
        )
    return report

"""Deterministic fault-injection campaigns.

A campaign repeatedly takes a real benchmark region, splices one chaos
pass (:mod:`repro.faults.chaos`) into the machine's published pass
sequence at a random position, and schedules the region through the
full defense stack:

1. the **pass guard** (checkpoint/rollback/quarantine) inside
   :class:`~repro.core.convergent.ConvergentScheduler`;
2. the **fallback chain** (convergent → list → single-cluster) of
   :class:`~repro.schedulers.fallback.FallbackChain`;
3. the **hardened harness** (:func:`repro.harness.run_region` with
   ``capture_errors=True``), which can only ever report — never raise.

A fraction of trials deliberately runs with the guard disabled so the
fallback chain's line of defense is exercised too.  Everything is drawn
from one seeded generator: same seed, same campaign, same report.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from ..core.convergent import ConvergentScheduler
from ..core.sequences import sequence_for_machine
from ..harness.experiment import RegionResult, _run_region
from ..ir.regions import Region
from ..machine.machine import Machine
from ..schedulers.fallback import FallbackChain
from ..schedulers.single import SingleClusterScheduler
from ..schedulers.uas import UnifiedAssignAndSchedule
from .chaos import FAULT_REGISTRY, make_fault

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.pool import CompilationEngine
    from ..observability.flight import FlightLedger

#: How a trial survived its injected fault.
DEFENSE_ROLLBACK = "rollback"  # pass guard rolled the matrix back
DEFENSE_FALLBACK = "fallback"  # a lower chain level produced the schedule
DEFENSE_ABSORBED = "absorbed"  # fault caused no observable failure
DEFENSE_NONE = "crash"  # nothing saved it (campaign failure)


@dataclass
class InjectionOutcome:
    """One fault-injection trial.

    ``worker``, ``started_s``, and ``finished_s`` are stamped in the
    executing process so the campaign's flight ledger (see
    :func:`run_campaign`) can reconstruct per-worker timelines.
    """

    trial: int
    region_name: str
    fault_kind: str
    position: int
    guarded: bool
    defense: str
    fallback_level: int
    guard_events: int
    quarantined: List[str]
    result: RegionResult
    worker: int = 0
    started_s: float = 0.0
    finished_s: float = 0.0

    @property
    def validated(self) -> bool:
        """True when the trial ended with a simulator-verified schedule."""
        return self.result.ok


@dataclass
class CampaignReport:
    """Aggregate of a full fault-injection campaign.

    ``truncated`` is True when the campaign stopped early because
    ``fail_fast`` was set and a trial crashed; the outcomes list then
    holds only the trials that actually ran.
    """

    machine_name: str
    seed: int
    outcomes: List[InjectionOutcome] = field(default_factory=list)
    truncated: bool = False

    @property
    def n_trials(self) -> int:
        return len(self.outcomes)

    @property
    def crashes(self) -> List[InjectionOutcome]:
        """Trials that failed to produce a verified schedule."""
        return [o for o in self.outcomes if not o.validated]

    @property
    def ok(self) -> bool:
        """True when every trial survived its fault."""
        return not self.crashes

    def count(self, defense: str) -> int:
        """Number of trials resolved by ``defense``."""
        return sum(1 for o in self.outcomes if o.defense == defense)

    @property
    def total_guard_events(self) -> int:
        """Guard interventions (rollbacks + quarantines) across trials."""
        return sum(o.guard_events for o in self.outcomes)

    def render(self) -> str:
        """Plain-text campaign summary."""
        lines = [
            f"fault-injection campaign on {self.machine_name} "
            f"(seed {self.seed}): {self.n_trials} trials"
            + (" [truncated: fail-fast]" if self.truncated else ""),
            f"  survived:            {self.n_trials - len(self.crashes)}"
            f"/{self.n_trials}",
            f"  guard rollbacks:     {self.count(DEFENSE_ROLLBACK)}",
            f"  chain fallbacks:     {self.count(DEFENSE_FALLBACK)}",
            f"  absorbed harmlessly: {self.count(DEFENSE_ABSORBED)}",
            f"  crashes:             {len(self.crashes)}",
        ]
        for outcome in self.crashes[:5]:
            lines.append(
                f"  CRASH trial {outcome.trial} "
                f"({outcome.fault_kind} in {outcome.region_name}): "
                f"{outcome.result.error}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class TrialPlan:
    """Everything one trial needs, pre-drawn so trials can run anywhere.

    Plans are drawn up-front from the campaign's single seeded
    generator (in the same order the serial loop always drew them), so
    a trial executes identically whether it runs inline or in a pool
    worker — and in any order.
    """

    trial: int
    region: Region
    machine: Machine
    base_sequence: tuple
    fault_kind: str
    position: int
    guarded: bool
    seed: int
    check_values: bool
    verify: bool


def _run_trial(plan: TrialPlan) -> InjectionOutcome:
    """Execute one fault-injection trial (top-level for pool fan-out).

    The full defense stack is rebuilt from the plan, the region is
    scheduled through it, and the outcome is classified from the
    scheduler state *in the executing process* — only the picklable
    :class:`InjectionOutcome` travels back to the parent.

    Trials never touch the schedule cache: a hit would skip the
    defense stack, making the trial unclassifiable, and a stored entry
    could never be hit, because its key includes the injected fault
    pass.

    Args:
        plan: The pre-drawn trial recipe.

    Returns:
        The classified outcome.
    """
    started_s = time.time()
    passes: list = list(plan.base_sequence)
    passes.insert(plan.position, make_fault(plan.fault_kind))
    convergent = ConvergentScheduler(
        passes=passes, seed=plan.seed + plan.trial, guard=plan.guarded
    )
    chain = FallbackChain(
        [convergent, UnifiedAssignAndSchedule(), SingleClusterScheduler()],
        check_values=plan.check_values,
    )
    result, _ = _run_region(
        plan.region,
        plan.machine,
        chain,
        plan.check_values,
        True,
        plan.verify,
    )
    trace = convergent.last_result.trace if convergent.last_result else None
    n_guard_events = len(trace.guard_events) if trace else 0
    quarantined = (
        convergent.last_result.guard.quarantined
        if convergent.last_result and convergent.last_result.guard
        else []
    )
    level = chain.last_level or 0
    if not result.ok:
        defense = DEFENSE_NONE
    elif level > 0:
        defense = DEFENSE_FALLBACK
    elif n_guard_events > 0:
        defense = DEFENSE_ROLLBACK
    else:
        defense = DEFENSE_ABSORBED
    return InjectionOutcome(
        trial=plan.trial,
        region_name=plan.region.name,
        fault_kind=plan.fault_kind,
        position=plan.position,
        guarded=plan.guarded,
        defense=defense,
        fallback_level=level,
        guard_events=n_guard_events,
        quarantined=list(quarantined),
        result=result,
        worker=os.getpid(),
        started_s=started_s,
        finished_s=time.time(),
    )


def run_campaign(
    machine: Machine,
    regions: Sequence[Region],
    n_trials: int = 100,
    seed: int = 0,
    guarded_fraction: float = 0.75,
    fault_kinds: Optional[Sequence[str]] = None,
    check_values: bool = False,
    verify: bool = False,
    fail_fast: bool = False,
    engine: Optional["CompilationEngine"] = None,
) -> CampaignReport:
    """Inject ``n_trials`` faults and report how each was survived.

    Args:
        machine: Target machine; also selects the base pass sequence.
        regions: Pool of scheduling regions faults are injected into.
        n_trials: Number of injections (one chaos pass each).
        seed: Seeds every random choice — region, fault kind, insertion
            position, guard on/off — so campaigns replay exactly.
        guarded_fraction: Fraction of trials with the pass guard on; the
            rest run unguarded so the fallback chain is exercised.
        fault_kinds: Subset of :data:`~repro.faults.chaos.FAULT_REGISTRY`
            keys; default all.
        check_values: Full dataflow replay during validation (slower).
        verify: Also gate every surviving schedule on the static
            verifier (:mod:`repro.verify`) via the harness, so a trial
            only counts as survived if its recovered schedule is
            *provably* legal, not just simulator-accepted.
        fail_fast: Stop dispatching new trial chunks as soon as one
            trial crashes (``defense == "crash"``); the report is then
            marked ``truncated``.  Outcomes that already ran keep their
            trial numbers, so a truncated report is a prefix of the
            full one.
        engine: Optional :class:`~repro.engine.pool.CompilationEngine`
            the trials fan out over; without one, a private inline
            engine is built and closed.  All randomness is pre-drawn
            into per-trial plans and outcomes are merged in trial
            order, so any ``engine.jobs`` reports exactly what an
            inline engine does.  When the engine carries a flight
            ledger, each trial appends one flight record — worker pid,
            queue wait vs execute seconds, survival status, fallback
            level — built parent-side from timestamps the trial stamps
            in the executing process.  The report itself is unaffected.
    """
    if not regions:
        raise ValueError("campaign needs at least one region")
    kinds = list(fault_kinds) if fault_kinds else sorted(FAULT_REGISTRY)
    rng = np.random.default_rng(seed)
    try:
        base_sequence = list(sequence_for_machine(machine.name))
    except KeyError:
        from ..core.sequences import GENERIC_SEQUENCE

        base_sequence = list(GENERIC_SEQUENCE)

    # Draws happen in the exact order the serial loop used (region,
    # kind, position, guarded per trial), so plans — and therefore
    # outcomes — are identical for any jobs count.
    plans: List[TrialPlan] = []
    for trial in range(n_trials):
        region = regions[int(rng.integers(0, len(regions)))]
        kind = kinds[int(rng.integers(0, len(kinds)))]
        position = int(rng.integers(0, len(base_sequence) + 1))
        guarded = bool(rng.random() < guarded_fraction)
        plans.append(
            TrialPlan(
                trial=trial,
                region=region,
                machine=machine,
                base_sequence=tuple(base_sequence),
                fault_kind=kind,
                position=position,
                guarded=guarded,
                seed=seed,
                check_values=check_values,
                verify=verify,
            )
        )

    from ..engine.pool import engine_or_inline

    report = CampaignReport(machine_name=machine.name, seed=seed)
    with engine_or_inline(engine) as engine:

        def dispatch(chunk: List[TrialPlan]) -> None:
            submit_s = time.time()
            outcomes = engine.map(_run_trial, chunk)
            report.outcomes.extend(outcomes)
            if engine.ledger is not None:
                _record_trials(engine.ledger, machine, outcomes, submit_s)

        if not fail_fast:
            dispatch(plans)
            return report
        # Fail-fast: dispatch in chunks so a crash stops the campaign
        # within one chunk instead of after all n_trials.
        chunk_size = engine.jobs * 4
        for start in range(0, len(plans), chunk_size):
            dispatch(plans[start : start + chunk_size])
            if any(o.defense == DEFENSE_NONE for o in report.outcomes):
                report.truncated = start + chunk_size < len(plans)
                break
        return report


def _record_trials(
    ledger: "FlightLedger",
    machine: Machine,
    outcomes: Sequence[InjectionOutcome],
    submit_s: float,
) -> None:
    """Append one flight record per trial outcome to ``ledger``.

    Records are built parent-side from the worker-stamped timestamps:
    queue wait is the gap between the chunk's dispatch and the trial's
    start in the executing process, execute is the trial's own wall
    time.  Trials never touch the cache, so ``cache_status`` is always
    ``"off"``.  The chain level that produced the schedule is the
    trial's ``degradation_level``.

    Args:
        ledger: Destination flight ledger.
        machine: Campaign target machine (for the record's label).
        outcomes: Trial outcomes of one ``engine.map`` dispatch.
        submit_s: Wall-clock time the dispatch was submitted.
    """
    from ..observability.flight import FlightRecord

    for outcome in outcomes:
        start = outcome.started_s or submit_s
        finish = outcome.finished_s or start
        ledger.append(
            FlightRecord(
                index=outcome.trial,
                region=outcome.region_name,
                machine=machine.name,
                scheduler="fallback",
                fingerprint=None,
                cache_status="off",
                worker=outcome.worker,
                submit_s=submit_s,
                start_s=start,
                finish_s=finish,
                queue_wait_s=max(0.0, start - submit_s),
                execute_s=max(0.0, finish - start),
                degradation_level=outcome.fallback_level,
                status="ok" if outcome.validated else "failed",
                cycles=outcome.result.cycles,
            )
        )

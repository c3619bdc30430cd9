"""Fault injection for the convergent scheduling pipeline.

Chaos-engineering support for the guarded pipeline
(:mod:`repro.core.guard`): a small bestiary of deliberately misbehaving
scheduling passes (:mod:`repro.faults.chaos`) and a deterministic,
seeded campaign runner (:mod:`repro.faults.campaign`) that injects them
into real pass sequences and proves every region still yields a
simulator-validated schedule — by guard rollback, pass quarantine, or
scheduler fallback, never by crashing.

Two further modules turn the fault machinery on the static verifier
(:mod:`repro.verify`): :mod:`repro.faults.corrupt` applies
precisely-understood illegal edits to known-good schedules, and
:mod:`repro.faults.differential` runs verifier-vs-simulator campaigns
demanding every corruption is flagged and no clean schedule is.
:func:`~repro.faults.corrupt.corrupt_cache_files` damages disk-cache
entry files in place, so tests can prove the schedule cache
quarantines and recomputes them.
"""

from .campaign import CampaignReport, InjectionOutcome, run_campaign
from .chaos import (
    FAULT_REGISTRY,
    NaNInjector,
    RaisingPass,
    WeightCorruptor,
    ZeroRowPass,
    make_fault,
)
from .corrupt import (
    CORRUPTION_REGISTRY,
    EXPECTED_CODES,
    corrupt_cache_files,
    corrupt_schedule,
)
from .differential import (
    DifferentialReport,
    DifferentialTrial,
    run_differential_campaign,
)

__all__ = [
    "CORRUPTION_REGISTRY",
    "CampaignReport",
    "DifferentialReport",
    "DifferentialTrial",
    "EXPECTED_CODES",
    "FAULT_REGISTRY",
    "InjectionOutcome",
    "NaNInjector",
    "RaisingPass",
    "WeightCorruptor",
    "ZeroRowPass",
    "corrupt_cache_files",
    "corrupt_schedule",
    "make_fault",
    "run_campaign",
]

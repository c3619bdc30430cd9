"""Repeat-aware measurement of one (program, machine, scheduler) cell.

The benchmark-snapshot subsystem (:mod:`repro.observability.bench`)
needs two kinds of numbers per cell, and they want different run
conditions:

* **schedule quality** (cycles, transfers, utilization, comm busy) is
  deterministic — any single run yields it;
* **compile cost** wants clean timing — so the timed repeats run with
  the null tracer (tracing computes matrix deltas per pass and would
  pollute the measurement), and one *extra* traced run afterwards
  collects the per-phase breakdown and per-pass churn/entropy without
  contributing to the reported wall time.

:func:`measure_program` packages that protocol: K untraced repeats
(median compile time, noisy-timer guard) plus an optional traced run,
all folded into a :class:`Measurement` that the snapshot assembler
consumes alongside :attr:`ProgramResult.metrics
<repro.harness.experiment.ProgramResult.metrics>`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from ..ir.regions import Program
from ..machine.machine import Machine
from ..observability.metrics import MetricsRegistry
from ..observability.tracer import Tracer, tracing
from ..schedulers.base import Scheduler
from .experiment import ProgramResult, run_program

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.pool import CompilationEngine

#: Phases extracted from the traced run into ``Measurement.phase_seconds``.
PHASE_NAMES = ("converge", "simulate", "list_schedule", "extract_assignment")

#: A repeat set whose relative spread exceeds this is flagged noisy.
NOISE_THRESHOLD = 0.5


def median(values: List[float]) -> float:
    """Median of ``values``; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass
class Measurement:
    """One cell's quality result plus its compile-cost measurements.

    Attributes:
        result: The :class:`ProgramResult` of the first repeat (quality
            fields are deterministic, so any repeat's result serves),
            with ``metrics`` attached.
        compile_seconds_runs: Per-repeat total scheduling wall time.
        phase_seconds: Wall seconds per pipeline phase from the traced
            run (keys from :data:`PHASE_NAMES` plus ``"passes"`` for the
            summed per-pass time); empty when phases were not collected.
        churn_total: Summed per-pass L1 churn over the traced run, or
            ``None`` for schedulers that emit no pass spans.
        final_entropy: Mean normalized entropy after the last pass, or
            ``None`` without pass spans.
        final_confidence: Mean clamped confidence after the last pass,
            or ``None`` without pass spans.
    """

    result: ProgramResult
    compile_seconds_runs: List[float] = field(default_factory=list)
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    churn_total: Optional[float] = None
    final_entropy: Optional[float] = None
    final_confidence: Optional[float] = None

    @property
    def compile_seconds(self) -> float:
        """Median scheduling wall time over the repeats."""
        return median(self.compile_seconds_runs)

    @property
    def timing_noisy(self) -> bool:
        """True when the repeat spread exceeds :data:`NOISE_THRESHOLD`.

        The guard flags a cell whose ``(max - min) / median`` relative
        spread suggests the box was too loaded for the timing to mean
        much; quality fields are unaffected.
        """
        runs = self.compile_seconds_runs
        mid = self.compile_seconds
        if len(runs) < 2 or mid <= 0:
            return False
        return (max(runs) - min(runs)) / mid > NOISE_THRESHOLD


def measure_program(
    program: Program,
    machine: Machine,
    scheduler: Scheduler,
    repeats: int = 3,
    check_values: bool = False,
    collect_phases: bool = True,
    engine: Optional["CompilationEngine"] = None,
) -> Measurement:
    """Run one bench cell: K timed repeats plus an optional traced run.

    Args:
        program: The benchmark program (already bound to ``machine``).
        machine: Target machine model.
        scheduler: Scheduler under measurement; reused across repeats.
        repeats: Untraced timing repeats (the median is reported).
        check_values: Replay the dataflow against the reference
            interpreter; off by default — validation is structural
            either way and cycle counts are unaffected.
        collect_phases: Also do one traced run for the per-phase
            breakdown and per-pass churn/entropy (not timed).
        engine: Optional :class:`~repro.engine.pool.CompilationEngine`
            shared by every repeat and the traced run; without one, a
            private inline engine is built and closed.  Quality fields
            are unaffected by its cache (hits replay recorded simulator
            numbers), but timing and phase/churn fields then describe
            the *cached* compile path — give it no cache when the cost
            columns must reflect fresh scheduling.  When it carries a
            flight ledger, every repeat (and the traced run) appends
            per-region flight records into it.

    Returns:
        The assembled :class:`Measurement`; ``result`` carries the
        registry snapshot of the first repeat as its ``metrics``.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    from ..engine.pool import engine_or_inline

    result: Optional[ProgramResult] = None
    runs: List[float] = []
    with engine_or_inline(engine) as engine:
        for index in range(repeats):
            registry = MetricsRegistry() if index == 0 else None
            outcome = run_program(
                program, machine, scheduler, check_values=check_values,
                registry=registry, engine=engine,
            )
            runs.append(outcome.compile_seconds)
            if result is None:
                result = outcome
        measurement = Measurement(result=result, compile_seconds_runs=runs)
        if collect_phases:
            tracer = Tracer()
            with tracing(tracer):
                run_program(
                    program, machine, scheduler, check_values=check_values,
                    engine=engine,
                )
            _fold_trace(measurement, tracer)
    return measurement


def _fold_trace(measurement: Measurement, tracer: Tracer) -> None:
    """Extract phase times and pass metrics from the traced run."""
    phases = {name: tracer.total_seconds(name) for name in PHASE_NAMES}
    pass_spans = [
        r for r in tracer.spans() if r.name.startswith("pass:")
    ]
    phases["passes"] = sum(r.duration_s or 0.0 for r in pass_spans)
    measurement.phase_seconds = phases
    if pass_spans:
        measurement.churn_total = sum(
            float(r.fields.get("l1_churn", 0.0)) for r in pass_spans
        )
        last = pass_spans[-1].fields
        measurement.final_entropy = float(last.get("mean_entropy", 0.0))
        measurement.final_confidence = float(last.get("mean_confidence", 0.0))

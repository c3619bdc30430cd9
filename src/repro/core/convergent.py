"""The convergent scheduler driver.

Runs a sequence of independent heuristics over the shared preference
matrix (Section 2 of the paper), then hands the converged result to the
list scheduler:

* the **spatial assignment** is each instruction's preferred cluster,
  restricted to its feasible set (preplacement and functional-unit
  constraints always win — they are correctness constraints);
* the **preferred time** becomes the instruction's list-scheduling
  priority on Chorus; on Raw, matching the paper, temporal priorities
  are recomputed by the list scheduler itself (critical-path order).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..ir.regions import Region
from ..machine.machine import Machine
from ..observability.metrics import matrix_delta
from ..observability.tracer import NullTracer, Tracer, active as active_tracer
from ..schedulers.base import Scheduler
from ..schedulers.list_scheduler import ListScheduler, SchedulingError

# Importable here because perfbench/layers.py counts calls to it on every
# module of the convergent path; extraction itself reads the mask.
from ..schedulers.list_scheduler import feasible_clusters as feasible_clusters
from ..schedulers.schedule import Schedule
from .guard import PassGuard
from .kernels import feasibility_mask
from .metrics import ConvergenceTrace
from .passes import PassContext, SchedulingPass, make_pass
from .sequences import sequence_for_machine
from .weights import PreferenceMatrix


@dataclass
class ConvergentResult:
    """Everything the convergent scheduler produced for one region."""

    schedule: Schedule
    assignment: Dict[int, int]
    priorities: Optional[Dict[int, int]]
    matrix: PreferenceMatrix
    trace: ConvergenceTrace
    #: The guard that supervised the run; ``guard.events`` is empty on a
    #: fault-free run, ``None`` when guarding was disabled.
    guard: Optional[PassGuard] = None

    @property
    def degraded(self) -> bool:
        """True when any pass was rolled back or quarantined."""
        return self.trace.degraded


class ConvergentScheduler(Scheduler):
    """Convergent scheduling (Lee, Puppin, Swenson, Amarasinghe 2002).

    Args:
        passes: Pass sequence — Table-1 names or pass instances.  When
            ``None``, the published sequence for the target machine is
            used (:mod:`repro.core.sequences`).
        seed: Base seed for the NOISE pass; combined with the region name
            so every region draws an independent but reproducible stream.
        use_preferred_times: Feed converged times to the list scheduler
            as priorities.  Default (``None``) follows the paper: yes on
            Chorus, no on Raw (Rawcc recomputes its own temporal order).
        keep_snapshots: Retain a matrix copy after every pass, enabling
            Figure-4 style preference-map rendering.
        check_invariants: Validate the matrix invariants after every
            pass (useful in tests; small overhead).
        iterations: Apply the pass sequence this many times.  The paper
            calls out repeated/iterative application as a framework
            feature ("useful to provide feedback between phases and to
            avoid phase ordering problems"); INITTIME runs only in the
            first round, since feasibility never changes.
        guard: Run every pass under a :class:`~repro.core.guard.PassGuard`
            (checkpoint, rollback on exception or matrix corruption,
            quarantine of repeat offenders).  On the happy path the
            guard is behavior-neutral; disable it only to reproduce a
            crash.
        quarantine_after: Failures of one pass before it is quarantined
            for the rest of the run.

    Tracing is ambient: :meth:`converge` records into the tracer
    installed with :func:`repro.observability.tracer.tracing` (or
    :func:`~repro.observability.tracer.install`), which is the no-op
    null tracer unless one was installed — tracing off is behavior- and
    speed-neutral.
    """

    name = "convergent"

    def __init__(
        self,
        passes: Optional[Sequence[Union[str, SchedulingPass]]] = None,
        seed: int = 0,
        use_preferred_times: Optional[bool] = None,
        keep_snapshots: bool = False,
        check_invariants: bool = False,
        iterations: int = 1,
        guard: bool = True,
        quarantine_after: int = 2,
    ) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self._passes_spec = passes
        self.seed = seed
        self.use_preferred_times = use_preferred_times
        self.keep_snapshots = keep_snapshots
        self.check_invariants = check_invariants
        self.iterations = iterations
        self.guard = guard
        self.quarantine_after = quarantine_after
        self.last_result: Optional[ConvergentResult] = None

    # ------------------------------------------------------------------

    def _build_passes(self, machine: Machine) -> List[SchedulingPass]:
        spec = self._passes_spec
        if spec is None:
            try:
                spec = sequence_for_machine(machine.name)
            except KeyError:
                # Custom machine model: fall back to the generic order.
                from .sequences import GENERIC_SEQUENCE

                spec = GENERIC_SEQUENCE
        return [p if isinstance(p, SchedulingPass) else make_pass(p) for p in spec]

    def _region_rng(self, region: Region) -> np.random.Generator:
        mix = zlib.crc32(region.name.encode("utf-8"))
        return np.random.default_rng((self.seed << 32) ^ mix)

    def converge(self, region: Region, machine: Machine) -> ConvergentResult:
        """Run the pass sequence and the final list scheduling step.

        When an ambient tracer is installed, each pass additionally
        emits a ``pass:<NAME>`` span carrying wall time and
        matrix-delta metrics, and each guard intervention emits one
        ``guard`` event; with the default null tracer none of that is
        computed.

        Args:
            region: The scheduling region to compile.
            machine: The target machine model.

        Returns:
            The full :class:`ConvergentResult`, including the converged
            matrix and the per-pass convergence trace.
        """
        tracer = active_tracer()
        with tracer.span(
            "converge",
            region=region.name,
            machine=machine.name,
            n_instructions=len(region.ddg),
            n_clusters=machine.n_clusters,
        ):
            return self._converge_traced(region, machine, tracer)

    def _converge_traced(
        self, region: Region, machine: Machine, tracer: Union[Tracer, NullTracer]
    ) -> ConvergentResult:
        """The body of :meth:`converge`, run inside its tracer span."""
        ddg = region.ddg
        matrix = PreferenceMatrix.for_region(ddg, machine.n_clusters)
        guard = PassGuard(quarantine_after=self.quarantine_after) if self.guard else None
        trace = ConvergenceTrace(keep_snapshots=self.keep_snapshots, guard=guard)
        trace.observe_initial(matrix)
        ctx = PassContext(
            ddg=ddg, machine=machine, matrix=matrix, rng=self._region_rng(region)
        )
        # Force the shared RegionIndex once, outside every pass span: the
        # build is per-region precomputation, so its cost belongs to the
        # region (its own span) rather than whichever pass runs first.
        with tracer.span("region_index", n_instructions=len(ddg)):
            ctx.index
        passes = self._build_passes(machine)
        for round_index in range(self.iterations):
            for scheduling_pass in passes:
                if round_index > 0 and scheduling_pass.name == "INITTIME":
                    continue  # feasibility never changes after round one
                if guard is not None and guard.is_quarantined(scheduling_pass):
                    continue
                if tracer.enabled:
                    before_weights = matrix.checkpoint()
                seen = len(guard.events) if guard is not None else 0
                with tracer.span(
                    f"pass:{scheduling_pass.name}", round=round_index
                ) as span:
                    if guard is None:
                        scheduling_pass.apply(ctx)
                        matrix.normalize()
                    elif guard.run(scheduling_pass, ctx, round_index) is not None:
                        if tracer.enabled:
                            span.fields["rolled_back"] = True
                if guard is not None and len(guard.events) > seen:
                    for event in guard.events[seen:]:
                        tracer.event(
                            "guard",
                            pass_name=event.pass_name,
                            round=event.round_index,
                            guard_kind=event.kind,
                            detail=event.detail,
                            recovered=event.recovered,
                        )
                    continue  # matrix rolled back; nothing to observe
                if self.check_invariants:
                    matrix.check_invariants()
                record = trace.observe_pass(scheduling_pass.name, matrix)
                if tracer.enabled:
                    span.fields.update(
                        changed_fraction=record.changed_fraction,
                        flips=trace.last_flips,
                        **matrix_delta(before_weights, matrix),
                    )

        with tracer.span("extract_assignment", region=region.name):
            assignment = self.extract_assignment(
                matrix, region, machine, feasible=ctx.index.feasible
            )
        prefer_times = self.use_preferred_times
        if prefer_times is None:
            prefer_times = machine.name.startswith("vliw")
        priorities: Optional[Dict[int, int]] = None
        if prefer_times:
            priorities = {i: t for i, t in enumerate(matrix.preferred_times())}

        scheduler = ListScheduler(name=self.name)
        with tracer.span("list_schedule", region=region.name):
            schedule = scheduler.schedule(
                region, machine, assignment=assignment, priorities=priorities
            )
        result = ConvergentResult(
            schedule=schedule,
            assignment=assignment,
            priorities=priorities,
            matrix=matrix,
            trace=trace,
            guard=guard,
        )
        self.last_result = result
        return result

    @staticmethod
    def extract_assignment(
        matrix: PreferenceMatrix,
        region: Region,
        machine: Machine,
        feasible: Optional[np.ndarray] = None,
    ) -> Dict[int, int]:
        """Preferred cluster per instruction, restricted to feasibility.

        The weight matrix *should* already respect hard constraints
        (INITTIME squashes infeasible clusters, PLACE boosts homes by
        x100), but extraction re-checks them so a mis-tuned pass
        sequence can degrade performance, never correctness.  It is a
        masked argmax over the cluster marginals: ties go to the lowest
        feasible cluster.

        Args:
            matrix: The converged preference matrix.
            region: The region the matrix was built for.
            machine: The target machine (supplies feasibility).
            feasible: The region's ``(N, C)`` feasibility mask
                (``RegionIndex.feasible``); computed with
                :func:`~repro.core.kernels.feasibility_mask` when omitted.

        Returns:
            Mapping from instruction uid to its assigned cluster index.
        """
        if feasible is None:
            feasible = feasibility_mask(region.ddg, machine)
        empty = np.flatnonzero(~feasible.any(axis=1))
        if empty.size:
            inst = region.ddg.instruction(int(empty[0]))
            raise SchedulingError(
                f"no feasible cluster for instruction {inst.uid} "
                f"({inst.opcode.name}) in region {region.name!r} on "
                f"machine {machine.name!r}: no cluster can execute "
                f"func class {inst.func_class.name}"
            )
        masked = np.where(feasible, matrix.cluster_marginals(), -np.inf)
        return dict(enumerate(np.argmax(masked, axis=1).tolist()))

    # ------------------------------------------------------------------

    def schedule(self, region: Region, machine: Machine) -> Schedule:
        """The plain :class:`~repro.schedulers.base.Scheduler` interface.

        Args:
            region: The scheduling region to compile.
            machine: The target machine model.

        Returns:
            The verified :class:`~repro.core.schedule.Schedule` from
            :meth:`converge`, discarding the convergence diagnostics.
        """
        return self.converge(region, machine).schedule

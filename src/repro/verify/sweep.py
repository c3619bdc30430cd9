"""Verification sweeps: every scheduler x benchmark x machine, proven legal.

:func:`run_sweep` drives each registered scheduler over benchmark
regions and verifies every produced schedule with
:func:`~repro.verify.ddg_checks.verify_ddg` and
:func:`~repro.verify.schedule_checks.verify_schedule`.  A scheduler may
legitimately *decline* a region (``SchedulingError`` — e.g. the
single-cluster baseline refusing a multi-tile Raw region with hard bank
affinity); declined cells are recorded as skipped, not failed.

:func:`scheduler_registry` is the sweep's (and the CLI's and the bench's)
single source of truth for the registered schedulers, and
:func:`make_scheduler` the one way to build a seeded instance from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

from ..machine.machine import Machine
from ..schedulers.base import Scheduler
from ..schedulers.list_scheduler import SchedulingError
from .ddg_checks import verify_ddg
from .diagnostics import VerificationReport
from .schedule_checks import verify_schedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.pool import CompilationEngine

#: Cell verified clean (no ERROR diagnostics).
CELL_VERIFIED = "verified"
#: Scheduler declined the region with a SchedulingError.
CELL_SKIPPED = "skipped"
#: Verifier found ERROR diagnostics, or the scheduler crashed.
CELL_ERROR = "error"


def scheduler_registry() -> Dict[str, Callable[[], Scheduler]]:
    """Name -> zero-argument constructor for every registered scheduler.

    Returns:
        The registry, in stable alphabetical order.  Imported lazily so
        :mod:`repro.verify` does not pull every scheduler at import time.
    """
    from ..core import ConvergentScheduler
    from ..schedulers import (
        FallbackChain,
        PartialComponentClustering,
        RawccScheduler,
        SingleClusterScheduler,
        UnifiedAssignAndSchedule,
    )

    return {
        "convergent": ConvergentScheduler,
        "fallback": FallbackChain,
        "pcc": PartialComponentClustering,
        "rawcc": RawccScheduler,
        "single": SingleClusterScheduler,
        "uas": UnifiedAssignAndSchedule,
    }


def make_scheduler(name: str, seed: Optional[int] = None) -> Scheduler:
    """Fresh instance of the registered scheduler ``name``.

    Args:
        name: Registry name (see :func:`scheduler_registry`).
        seed: Optional seed, set on the instance's ``seed`` attribute as
            :func:`repro.serve.wire.build_scheduler` does; schedulers
            without one ignore it.

    Returns:
        The scheduler.

    Raises:
        KeyError: ``name`` is not registered.
    """
    registry = scheduler_registry()
    if name not in registry:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown scheduler {name!r}; available: {known}")
    scheduler = registry[name]()
    if seed is not None and hasattr(scheduler, "seed"):
        scheduler.seed = seed
    return scheduler


@dataclass
class SweepCell:
    """Outcome of verifying one (machine, benchmark, region, scheduler).

    Attributes:
        machine: Machine name.
        benchmark: Benchmark name.
        region: Region name.
        scheduler: Scheduler registry name.
        status: :data:`CELL_VERIFIED`, :data:`CELL_SKIPPED`, or
            :data:`CELL_ERROR`.
        report: The merged verification report (``None`` for skipped or
            crashed cells).
        detail: Decline/crash message for non-verified cells.
    """

    machine: str
    benchmark: str
    region: str
    scheduler: str
    status: str
    report: Optional[VerificationReport] = None
    detail: str = ""


@dataclass
class SweepReport:
    """Aggregate of one verification sweep.

    Attributes:
        cells: One entry per (machine, benchmark, region, scheduler).
    """

    cells: List[SweepCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no cell has ERROR status."""
        return not self.failures

    @property
    def failures(self) -> List[SweepCell]:
        """Cells whose schedule failed verification (or whose scheduler
        crashed with something other than a decline)."""
        return [c for c in self.cells if c.status == CELL_ERROR]

    @property
    def skipped(self) -> List[SweepCell]:
        """Cells whose scheduler declined the region."""
        return [c for c in self.cells if c.status == CELL_SKIPPED]

    @property
    def verified(self) -> List[SweepCell]:
        """Cells proven legal."""
        return [c for c in self.cells if c.status == CELL_VERIFIED]

    def render(self) -> str:
        """Plain-text sweep summary with every failure detailed."""
        lines = [
            f"verification sweep: {len(self.cells)} cells — "
            f"{len(self.verified)} verified, {len(self.skipped)} skipped "
            f"(scheduler declined), {len(self.failures)} failed"
        ]
        for cell in self.skipped:
            lines.append(
                f"  SKIP {cell.machine} {cell.benchmark}/{cell.region} "
                f"{cell.scheduler}: {cell.detail}"
            )
        for cell in self.failures:
            lines.append(
                f"  FAIL {cell.machine} {cell.benchmark}/{cell.region} "
                f"{cell.scheduler}: {cell.detail}"
            )
            if cell.report is not None:
                lines.extend("    " + d.render() for d in cell.report.errors[:8])
        return "\n".join(lines)


@dataclass(frozen=True)
class _SweepSpec:
    """One sweep cell's recipe, picklable for pool fan-out."""

    machine: Machine
    benchmark: str
    region: object
    scheduler_name: str
    warnings_as_errors: bool


def _sweep_cell_task(spec: _SweepSpec) -> SweepCell:
    """Top-level pool target: build the scheduler and verify one cell."""
    scheduler = make_scheduler(spec.scheduler_name)
    return _verify_cell(
        spec.machine,
        spec.benchmark,
        spec.region,
        spec.scheduler_name,
        scheduler,
        spec.warnings_as_errors,
    )


def run_sweep(
    machines: Optional[Sequence[Machine]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    schedulers: Optional[Sequence[str]] = None,
    warnings_as_errors: bool = False,
    engine: Optional["CompilationEngine"] = None,
) -> SweepReport:
    """Schedule and statically verify a grid of workloads.

    Args:
        machines: Machines to sweep; default
            :data:`~repro.workloads.suite.MACHINES`.
        benchmarks: Benchmark names; default each machine's suite.
        schedulers: Scheduler registry names; default all registered.
        warnings_as_errors: Also fail cells on WARNING diagnostics.
        engine: Optional :class:`~repro.engine.pool.CompilationEngine`
            the cells fan out over; without one, a private inline
            engine is built and closed.  Cells come back in grid order
            regardless of completion order.  The sweep is *read-only*
            on the engine's cache: a hit replays the cached schedule
            (skipping scheduling) and still verifies it statically;
            nothing is stored, because the sweep never simulates and so
            has no verified cycle numbers to record.

    Returns:
        The :class:`SweepReport`; the sweep is clean iff ``report.ok``.
    """
    from ..engine.pool import engine_or_inline
    from ..machine import machine_from_spec
    from ..workloads.suite import MACHINES, build_benchmark, suite_for_machine

    if machines is None:
        machines = [machine_from_spec(spec) for spec in MACHINES]
    registry = scheduler_registry()
    names = list(schedulers) if schedulers is not None else sorted(registry)
    specs: List[_SweepSpec] = []
    for machine in machines:
        suite = benchmarks if benchmarks is not None else suite_for_machine(machine)
        for benchmark in suite:
            program = build_benchmark(benchmark, machine)
            for scheduler_name in names:
                for region in program.regions:
                    specs.append(
                        _SweepSpec(
                            machine=machine,
                            benchmark=benchmark,
                            region=region,
                            scheduler_name=scheduler_name,
                            warnings_as_errors=warnings_as_errors,
                        )
                    )
    with engine_or_inline(engine) as engine:
        cells = engine.map(_sweep_cell_task, specs)
    report = SweepReport()
    report.cells.extend(cells)
    return report


def _verify_cell(
    machine: Machine,
    benchmark: str,
    region,
    scheduler_name: str,
    scheduler: Scheduler,
    warnings_as_errors: bool,
) -> SweepCell:
    """Schedule one region with one scheduler and verify the result.

    When the executing process carries a schedule cache (see
    :func:`repro.engine.pool.worker_cache`), a hit supplies the
    schedule without re-running the scheduler — the static checks still
    run in full against the reconstructed schedule."""
    from ..engine.pool import worker_cache

    schedule = None
    cache = worker_cache()
    if cache is not None:
        from ..engine.fingerprint import schedule_key

        hit = cache.get(
            schedule_key(region, machine, scheduler, check_values=False),
            region,
        )
        if hit is not None:
            schedule = hit.schedule
    try:
        if schedule is None:
            schedule = scheduler.schedule(region, machine)
    except SchedulingError as exc:
        return SweepCell(
            machine=machine.name,
            benchmark=benchmark,
            region=region.name,
            scheduler=scheduler_name,
            status=CELL_SKIPPED,
            detail=str(exc),
        )
    except Exception as exc:  # noqa: BLE001 - crashes must surface as cells
        return SweepCell(
            machine=machine.name,
            benchmark=benchmark,
            region=region.name,
            scheduler=scheduler_name,
            status=CELL_ERROR,
            detail=f"scheduler crashed: {type(exc).__name__}: {exc}",
        )
    merged = verify_ddg(region.ddg, machine, subject=f"{benchmark}/{region.name}")
    merged.checker = "verify"
    merged.subject = f"{benchmark}/{region.name} on {machine.name} [{scheduler_name}]"
    merged.merge(verify_schedule(region, machine, schedule))
    bad = bool(merged.errors) or (warnings_as_errors and bool(merged.warnings))
    return SweepCell(
        machine=machine.name,
        benchmark=benchmark,
        region=region.name,
        scheduler=scheduler_name,
        status=CELL_ERROR if bad else CELL_VERIFIED,
        report=merged,
        detail=f"{len(merged.errors)} error(s)" if bad else "",
    )

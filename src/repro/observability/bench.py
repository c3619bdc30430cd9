"""Benchmark snapshots: the repository's performance trajectory.

PR 2 made a single run observable; this module makes *runs over time*
observable.  :func:`run_bench` executes the workload suite on both
machine models (Raw mesh and clustered VLIW) under each registered
scheduler and folds the outcome into a schema-versioned
:class:`BenchSnapshot`:

* per-cell **schedule quality** — simulated cycles, speedup vs. the
  single-cluster baseline, transfer count, communication busy-cycles,
  cluster utilization.  The pipeline is deterministic, so these fields
  are byte-identical across runs and exact-match gated by the compare
  engine (:mod:`repro.observability.diff`);
* per-cell **compile cost** — median-of-K scheduling wall time with a
  noisy-timer guard, per-phase breakdown and per-pass churn/entropy
  from a traced run (:func:`repro.harness.measure.measure_program`),
  guard counters from :attr:`ProgramResult.metrics
  <repro.harness.experiment.ProgramResult.metrics>`;
* a snapshot-level **environment fingerprint** (python, platform,
  numpy, git SHA) plus peak RSS and the engine's ``resilience.*``
  health counters (:data:`~repro.observability.metrics.RESILIENCE_COUNTERS`),
  so a regression can be attributed to code, to the box it ran on, or
  to an engine that had to retry/kill its way through the run.

Snapshots live at the repository root as ``BENCH_<n>.json`` — committed
artifacts forming a longitudinal record, in the spirit of the paper's
own evaluation (Figures 6-10 are trajectories, not points).  Schema
changes bump :data:`SCHEMA_VERSION`; ``scripts/check_bench_schema.py``
validates every committed snapshot in CI.
"""

from __future__ import annotations

import json
import platform
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING, Union

from ..machine import ClusteredVLIW, Machine, raw_with_tiles
from ..schedulers import (
    PartialComponentClustering,
    RawccScheduler,
    SingleClusterScheduler,
    UnifiedAssignAndSchedule,
)
from ..workloads import build_benchmark, suite_for_machine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.cache import ScheduleCache
    from .flight import FlightLedger

PathLike = Union[str, Path]

#: Bump on any incompatible change to the snapshot layout.
SCHEMA_VERSION = 1

#: The ``kind`` discriminator of a serialized snapshot.
SNAPSHOT_KIND = "bench_snapshot"

#: Filename pattern of committed snapshots at the repository root.
SNAPSHOT_PATTERN = re.compile(r"BENCH_(\d+)\.json$")

#: The ``--quick`` tier: three benchmarks present in *both* suites, so
#: a quick run always intersects a committed full snapshot.
QUICK_BENCHMARKS: Tuple[str, ...] = ("cholesky", "mxm", "tomcatv")

#: Scheduler line-up per machine family (the paper's comparisons).
RAW_SCHEDULERS: Tuple[str, ...] = ("convergent", "rawcc", "single")
VLIW_SCHEDULERS: Tuple[str, ...] = ("convergent", "uas", "pcc", "single")

#: Speedups are computed against this scheduler's cycles.
BASELINE_SCHEDULER = "single"

#: Timing repeats per cell: full tier vs. ``--quick``.
DEFAULT_REPEATS = 3
QUICK_REPEATS = 1


def _make_scheduler(name: str, seed: int):
    """Fresh scheduler instance for one cell."""
    if name == "convergent":
        # Imported lazily: repro.core imports this package's siblings
        # during its own init; a top-level import would cycle.
        from ..core import ConvergentScheduler

        return ConvergentScheduler(seed=seed)
    factories = {
        "rawcc": RawccScheduler,
        "uas": UnifiedAssignAndSchedule,
        "pcc": PartialComponentClustering,
        "single": SingleClusterScheduler,
    }
    try:
        return factories[name]()
    except KeyError:
        known = ", ".join(["convergent"] + sorted(factories))
        raise KeyError(f"unknown bench scheduler {name!r}; available: {known}") from None


def default_machines() -> List[Machine]:
    """The two machine models every default snapshot covers."""
    return [raw_with_tiles(16), ClusteredVLIW(4)]


def baseline_machine(machine: Machine) -> Machine:
    """The 1-cluster sibling used as the speedup denominator.

    Matches the harness's speedup definition: the ``single`` cell of a
    snapshot is measured on a single-tile/single-cluster machine of the
    same family (congruence then maps every bank onto it), exactly like
    the paper's denominators — a single-cluster scheduler on a clustered
    machine would be infeasible whenever preplacement pins banks to
    other clusters.
    """
    if machine.name.startswith("raw"):
        return raw_with_tiles(1)
    return ClusteredVLIW(1)


def schedulers_for_machine(machine: Machine) -> Tuple[str, ...]:
    """The benched scheduler names for a machine family."""
    return RAW_SCHEDULERS if machine.name.startswith("raw") else VLIW_SCHEDULERS


@dataclass
class BenchCell:
    """One (benchmark, machine, scheduler) measurement.

    Attributes:
        benchmark: Benchmark name.
        machine: Machine name (``raw4x4``, ``vliw4``, ...).
        scheduler: Scheduler name.
        quality: Deterministic schedule-quality fields — ``cycles``,
            ``transfers``, ``speedup``, ``utilization``, ``comm_busy``,
            ``status``.
        cost: Compile-cost fields — ``compile_seconds`` (median),
            ``runs``, ``timing_noisy``, ``phase_seconds``,
            ``churn_total`` / ``final_entropy`` / ``final_confidence``
            (``None`` for pass-free schedulers), guard counters, plus
            (snapshots ≥ BENCH_4) per-region compile-time tail
            quantiles ``compile_p50``/``compile_p90``/``compile_p99``
            and ``cache_hit_rate`` / ``cache_lookups``.
    """

    benchmark: str
    machine: str
    scheduler: str
    quality: Dict[str, object] = field(default_factory=dict)
    cost: Dict[str, object] = field(default_factory=dict)

    @property
    def key(self) -> Tuple[str, str, str]:
        """The (benchmark, machine, scheduler) identity of the cell."""
        return (self.benchmark, self.machine, self.scheduler)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation."""
        return {
            "benchmark": self.benchmark,
            "machine": self.machine,
            "scheduler": self.scheduler,
            "quality": dict(self.quality),
            "cost": dict(self.cost),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BenchCell":
        """Inverse of :meth:`to_dict`."""
        return cls(
            benchmark=str(data["benchmark"]),
            machine=str(data["machine"]),
            scheduler=str(data["scheduler"]),
            quality=dict(data.get("quality", {})),
            cost=dict(data.get("cost", {})),
        )


@dataclass
class BenchSnapshot:
    """A full benchmark snapshot: many cells plus provenance.

    Attributes:
        snapshot_id: The ``<n>`` of ``BENCH_<n>.json`` (0 for unsaved
            in-memory snapshots such as ``--against-latest`` runs).
        created_utc: ISO-8601 UTC creation stamp (not compared).
        environment: Fingerprint from :func:`environment_fingerprint`.
        config: Tier, repeats, seed, and the benched matrix.
        cells: The measurements, sorted by (machine, benchmark,
            scheduler).
        peak_rss_kb: Process peak resident set after the run (KB;
            0 where :mod:`resource` is unavailable).
        wall_seconds: Total wall time of the bench run.
    """

    schema_version: int = SCHEMA_VERSION
    snapshot_id: int = 0
    created_utc: str = ""
    environment: Dict[str, str] = field(default_factory=dict)
    config: Dict[str, object] = field(default_factory=dict)
    cells: List[BenchCell] = field(default_factory=list)
    peak_rss_kb: int = 0
    wall_seconds: float = 0.0

    def cell_map(self) -> Dict[Tuple[str, str, str], BenchCell]:
        """Cells keyed by (benchmark, machine, scheduler)."""
        return {cell.key: cell for cell in self.cells}

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (the on-disk schema)."""
        return {
            "kind": SNAPSHOT_KIND,
            "schema_version": self.schema_version,
            "snapshot_id": self.snapshot_id,
            "created_utc": self.created_utc,
            "environment": dict(self.environment),
            "config": dict(self.config),
            "peak_rss_kb": self.peak_rss_kb,
            "wall_seconds": round(self.wall_seconds, 3),
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BenchSnapshot":
        """Inverse of :meth:`to_dict`; raises on a wrong ``kind``.

        Args:
            data: A dict previously produced by :meth:`to_dict`.

        Returns:
            The reconstructed snapshot.
        """
        if data.get("kind") != SNAPSHOT_KIND:
            raise ValueError("not a serialized bench snapshot")
        return cls(
            schema_version=int(data.get("schema_version", 0)),
            snapshot_id=int(data.get("snapshot_id", 0)),
            created_utc=str(data.get("created_utc", "")),
            environment=dict(data.get("environment", {})),
            config=dict(data.get("config", {})),
            cells=[BenchCell.from_dict(c) for c in data.get("cells", [])],
            peak_rss_kb=int(data.get("peak_rss_kb", 0)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
        )

    def save(self, path: PathLike) -> None:
        """Write the snapshot to ``path`` as indented JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: PathLike) -> "BenchSnapshot":
        """Read a snapshot previously written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))


def environment_fingerprint() -> Dict[str, str]:
    """Python/platform/numpy/git identity of the producing environment."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        numpy_version = "unavailable"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
    }


def _git_sha() -> str:
    """Short HEAD SHA of the current working tree, or ``"unknown"``."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def _peak_rss_kb() -> int:
    """Process peak resident set in KB; 0 where unsupported."""
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except (ImportError, OSError):  # pragma: no cover - non-unix
        return 0


# ----------------------------------------------------------------------
# Snapshot discovery at the repository root
# ----------------------------------------------------------------------


def snapshot_paths(root: Optional[PathLike] = None) -> List[Path]:
    """Every ``BENCH_<n>.json`` under ``root``, ordered by ``n``.

    Args:
        root: Directory to scan; defaults to the current directory.

    Returns:
        The matching paths sorted by snapshot number.
    """
    root = Path(root) if root is not None else Path.cwd()
    found = []
    for path in root.glob("BENCH_*.json"):
        match = SNAPSHOT_PATTERN.fullmatch(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return [path for _, path in sorted(found)]


def latest_snapshot_path(root: Optional[PathLike] = None) -> Optional[Path]:
    """The highest-numbered committed snapshot, or ``None``."""
    paths = snapshot_paths(root)
    return paths[-1] if paths else None


def next_snapshot_path(root: Optional[PathLike] = None) -> Path:
    """Where the next snapshot should be written (``BENCH_<n+1>.json``)."""
    root = Path(root) if root is not None else Path.cwd()
    paths = snapshot_paths(root)
    if not paths:
        return root / "BENCH_1.json"
    last = int(SNAPSHOT_PATTERN.fullmatch(paths[-1].name).group(1))
    return root / f"BENCH_{last + 1}.json"


# ----------------------------------------------------------------------
# Running the suite
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _CellSpec:
    """One bench cell's full recipe, picklable for pool fan-out.

    ``machine`` is the machine the cell is *keyed* by; ``target`` is
    the machine actually scheduled on (the 1-cluster sibling for the
    baseline scheduler, ``machine`` itself otherwise).
    """

    benchmark: str
    machine: Machine
    target: Machine
    scheduler: str
    seed: int
    repeats: int
    check_values: bool
    collect_phases: bool
    flight: bool = False


def _measure_cell_task(spec: _CellSpec) -> Dict[str, object]:
    """Measure one bench cell (top-level so the pool can run it).

    The benchmark program and scheduler are rebuilt inside the
    executing process from the spec — both constructions are
    deterministic, so a cell measures identically in any worker.

    Args:
        spec: The cell recipe.

    Returns:
        Dict with the assembled ``cell``, the quality ``cycles`` (for
        baseline bookkeeping), and — when ``spec.flight`` — the cell's
        per-region ``flight`` records as JSON-safe dicts.
    """
    from ..engine.pool import worker_cache
    from ..harness.measure import measure_program
    from .flight import FlightLedger

    cell_ledger = FlightLedger() if spec.flight else None
    program = build_benchmark(spec.benchmark, spec.target)
    scheduler = _make_scheduler(spec.scheduler, spec.seed)
    measurement = measure_program(
        program,
        spec.target,
        scheduler,
        repeats=spec.repeats,
        check_values=spec.check_values,
        collect_phases=spec.collect_phases,
        cache=worker_cache(),
        ledger=cell_ledger,
    )
    cell = _assemble_cell(
        spec.benchmark, spec.machine.name, spec.scheduler, measurement
    )
    flight = (
        [record.to_dict() for record in cell_ledger.records]
        if cell_ledger is not None
        else []
    )
    return {"cell": cell, "cycles": measurement.result.cycles, "flight": flight}


def run_bench(
    machines: Optional[Sequence[Machine]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    schedulers: Optional[Sequence[str]] = None,
    repeats: Optional[int] = None,
    seed: int = 0,
    quick: bool = False,
    check_values: bool = False,
    collect_phases: bool = True,
    snapshot_id: int = 0,
    jobs: int = 1,
    cache: Optional["ScheduleCache"] = None,
    ledger: Optional["FlightLedger"] = None,
) -> BenchSnapshot:
    """Run the benchmark matrix and assemble a :class:`BenchSnapshot`.

    Args:
        machines: Machine models to bench; default Raw 4x4 mesh plus
            the 4-cluster VLIW (:func:`default_machines`).
        benchmarks: Benchmark names applied to every machine; default
            each machine's published suite (``--quick``:
            :data:`QUICK_BENCHMARKS`).
        schedulers: Scheduler names applied to every machine; default
            the family line-up (:func:`schedulers_for_machine`).  The
            :data:`BASELINE_SCHEDULER` is always added so speedups can
            be computed.
        repeats: Timing repeats per cell; default
            :data:`DEFAULT_REPEATS` (:data:`QUICK_REPEATS` for quick).
        seed: Seed handed to the convergent scheduler.
        check_values: Replay dataflow during simulation (slower; cycle
            counts are unaffected).
        quick: Use the small fast tier for all defaults.
        collect_phases: Run each cell once more under a tracer for the
            phase/churn breakdown.
        snapshot_id: Identity recorded in the snapshot (the caller
            knows the target filename; 0 for in-memory snapshots).
        jobs: Worker processes to fan cells out over; cells are merged
            back in plan order, so quality columns are byte-identical
            to a serial run.
        cache: Optional :class:`~repro.engine.cache.ScheduleCache`;
            hits replay recorded quality numbers (identical cells, much
            faster), and aggregate hit/miss counters land in the
            snapshot's ``config["cache"]``.
        ledger: Optional :class:`~repro.observability.flight.
            FlightLedger`; every cell's per-region flight records are
            folded into it in plan order.  Quality columns are
            byte-identical with the ledger on or off (the records ride
            beside the measurement, never in it).

    Returns:
        The assembled snapshot with cells sorted by
        (machine, benchmark, scheduler).
    """
    # Imported lazily to keep module import light and cycle-free.
    from ..engine.pool import CompilationEngine

    started = time.perf_counter()
    machines = list(machines) if machines else default_machines()
    if repeats is None:
        repeats = QUICK_REPEATS if quick else DEFAULT_REPEATS
    bench_plan: Dict[str, Dict[str, List[str]]] = {}
    specs: List[_CellSpec] = []
    for machine in machines:
        names = list(benchmarks) if benchmarks else (
            list(QUICK_BENCHMARKS) if quick else list(suite_for_machine(machine))
        )
        sched_names = list(schedulers) if schedulers else list(
            schedulers_for_machine(machine)
        )
        if BASELINE_SCHEDULER not in sched_names:
            sched_names.append(BASELINE_SCHEDULER)
        bench_plan[machine.name] = {"benchmarks": names, "schedulers": sched_names}
        baseline = baseline_machine(machine)
        for name in names:
            for sched_name in sched_names:
                # The single-cluster baseline runs on the 1-cluster
                # sibling, the paper's speedup denominator; the cell is
                # still keyed by the target machine so snapshots align.
                target = baseline if sched_name == BASELINE_SCHEDULER else machine
                specs.append(
                    _CellSpec(
                        benchmark=name,
                        machine=machine,
                        target=target,
                        scheduler=sched_name,
                        seed=seed,
                        repeats=repeats,
                        check_values=check_values,
                        collect_phases=collect_phases,
                        flight=ledger is not None,
                    )
                )
    stats_before = cache.stats.to_dict() if cache is not None else {}
    engine = CompilationEngine(jobs=jobs, cache=cache)
    try:
        outcomes = engine.map(_measure_cell_task, specs)
    finally:
        engine.close()
    cache_totals: Dict[str, int] = {}
    if cache is not None:
        # map() folds worker deltas into the shared stats, so the
        # before/after difference covers serial and parallel runs alike.
        after = cache.stats.to_dict()
        cache_totals = {k: after[k] - stats_before.get(k, 0) for k in after}
    cells: List[BenchCell] = []
    baseline_cycles: Dict[Tuple[str, str], int] = {}
    for spec, outcome in zip(specs, outcomes):
        cells.append(outcome["cell"])
        if spec.scheduler == BASELINE_SCHEDULER:
            baseline_cycles[(spec.machine.name, spec.benchmark)] = outcome["cycles"]
        if ledger is not None and outcome.get("flight"):
            from .flight import FlightRecord

            ledger.extend(
                [FlightRecord.from_dict(r) for r in outcome["flight"]]
            )
    for cell in cells:
        base = baseline_cycles.get((cell.machine, cell.benchmark), 0)
        cycles = cell.quality["cycles"]
        cell.quality["speedup"] = (
            round(base / cycles, 4) if base and cycles else 0.0
        )
    cells.sort(key=lambda c: (c.machine, c.benchmark, c.scheduler))
    environment = environment_fingerprint()
    environment["jobs"] = str(jobs)
    # Engine-health counters ride in the environment block (stringified,
    # like its other fields) so every snapshot records how much resilience
    # machinery — retries, kills, breaker trips — its numbers needed.
    # All zeros on a healthy run, which is itself worth recording.
    from .metrics import RESILIENCE_COUNTERS

    for counter in RESILIENCE_COUNTERS:
        environment[counter] = str(engine.telemetry.counters.get(counter, 0))
    config: Dict[str, object] = {
        "tier": "quick" if quick else "full",
        "repeats": repeats,
        "seed": seed,
        "check_values": check_values,
        "jobs": jobs,
        "plan": bench_plan,
    }
    if cache is not None:
        config["cache"] = dict(cache_totals)
    return BenchSnapshot(
        schema_version=SCHEMA_VERSION,
        snapshot_id=snapshot_id,
        created_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        environment=environment,
        config=config,
        cells=cells,
        peak_rss_kb=_peak_rss_kb(),
        wall_seconds=time.perf_counter() - started,
    )


def _assemble_cell(benchmark, machine_name, scheduler_name, measurement) -> BenchCell:
    """Fold one Measurement into a snapshot cell (speedup filled later)."""
    result = measurement.result
    metrics = result.metrics or {}
    counters = metrics.get("counters", {})
    # Per-region compile-time tail from the first repeat's registry —
    # QuantileHistogram dicts carry p50/p90/p99; legacy summary-only
    # histograms (or pass-free schedulers) yield None.
    compile_hist = metrics.get("histograms", {}).get("region.compile_seconds", {})
    quantiles = {
        f"compile_{q}": (
            round(float(compile_hist[q]), 6) if q in compile_hist else None
        )
        for q in ("p50", "p90", "p99")
    }
    lookups = int(counters.get("cache.hits", 0)) + int(counters.get("cache.misses", 0))
    hit_rate = (
        round(int(counters.get("cache.hits", 0)) / lookups, 4) if lookups else 0.0
    )
    quality = {
        "cycles": int(result.cycles),
        "transfers": int(result.transfers),
        "speedup": 0.0,
        "utilization": round(float(result.utilization), 4),
        "comm_busy": int(result.comm_busy),
        "status": result.status,
    }
    cost = {
        "compile_seconds": round(measurement.compile_seconds, 6),
        "runs": [round(v, 6) for v in measurement.compile_seconds_runs],
        "timing_noisy": measurement.timing_noisy,
        "phase_seconds": {
            k: round(v, 6) for k, v in sorted(measurement.phase_seconds.items())
        },
        "churn_total": (
            round(measurement.churn_total, 4)
            if measurement.churn_total is not None else None
        ),
        "final_entropy": (
            round(measurement.final_entropy, 4)
            if measurement.final_entropy is not None else None
        ),
        "final_confidence": (
            round(measurement.final_confidence, 4)
            if measurement.final_confidence is not None else None
        ),
        "guard_rollbacks": int(counters.get("guard.rollbacks", 0)),
        "guard_quarantines": int(counters.get("guard.quarantines", 0)),
        "cache_hit_rate": hit_rate,
        "cache_lookups": lookups,
        **quantiles,
    }
    return BenchCell(
        benchmark=benchmark,
        machine=machine_name,
        scheduler=scheduler_name,
        quality=quality,
        cost=cost,
    )


# ----------------------------------------------------------------------
# Schema validation (scripts/check_bench_schema.py, tests)
# ----------------------------------------------------------------------

#: Quality fields every cell must carry, with their required types.
QUALITY_FIELDS = {
    "cycles": int,
    "transfers": int,
    "speedup": (int, float),
    "utilization": (int, float),
    "comm_busy": int,
    "status": str,
}

#: Cost fields every cell must carry (types checked when non-None).
COST_FIELDS = ("compile_seconds", "runs", "timing_noisy", "phase_seconds")

#: Cost fields added by the flight-recorder PR; optional so snapshots
#: recorded before it (BENCH_1..3) stay schema-valid, but type-checked
#: whenever present.
OPTIONAL_COST_FIELDS = (
    "compile_p50",
    "compile_p90",
    "compile_p99",
    "cache_hit_rate",
    "cache_lookups",
)


def validate_snapshot(data: Dict[str, object]) -> List[str]:
    """Validate a snapshot dict against the current schema.

    Args:
        data: A parsed ``BENCH_<n>.json`` payload.

    Returns:
        A list of human-readable problems; empty when the snapshot is
        schema-valid.
    """
    problems: List[str] = []
    if not isinstance(data, dict):
        return ["snapshot is not a JSON object"]
    if data.get("kind") != SNAPSHOT_KIND:
        problems.append(f"kind is {data.get('kind')!r}, expected {SNAPSHOT_KIND!r}")
    if data.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"schema_version is {data.get('schema_version')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    if not isinstance(data.get("snapshot_id"), int) or data.get("snapshot_id", 0) < 0:
        problems.append("snapshot_id must be a non-negative integer")
    environment = data.get("environment")
    if not isinstance(environment, dict):
        problems.append("environment missing or not an object")
    else:
        for key in ("python", "platform", "git_sha"):
            if key not in environment:
                problems.append(f"environment missing {key!r}")
    config = data.get("config")
    if not isinstance(config, dict):
        problems.append("config missing or not an object")
    else:
        for key in ("tier", "repeats", "seed"):
            if key not in config:
                problems.append(f"config missing {key!r}")
    cells = data.get("cells")
    if not isinstance(cells, list) or not cells:
        problems.append("cells missing or empty")
        return problems
    seen = set()
    for index, cell in enumerate(cells):
        where = f"cells[{index}]"
        if not isinstance(cell, dict):
            problems.append(f"{where}: not an object")
            continue
        key = (cell.get("benchmark"), cell.get("machine"), cell.get("scheduler"))
        if not all(isinstance(part, str) and part for part in key):
            problems.append(f"{where}: benchmark/machine/scheduler must be strings")
        elif key in seen:
            problems.append(f"{where}: duplicate cell {key}")
        else:
            seen.add(key)
        quality = cell.get("quality")
        if not isinstance(quality, dict):
            problems.append(f"{where}: quality missing")
        else:
            for fname, ftype in QUALITY_FIELDS.items():
                if fname not in quality:
                    problems.append(f"{where}: quality missing {fname!r}")
                elif not isinstance(quality[fname], ftype) or isinstance(
                    quality[fname], bool
                ):
                    problems.append(f"{where}: quality.{fname} has wrong type")
            if isinstance(quality.get("cycles"), int) and quality["cycles"] < 0:
                problems.append(f"{where}: quality.cycles is negative")
        cost = cell.get("cost")
        if not isinstance(cost, dict):
            problems.append(f"{where}: cost missing")
        else:
            for fname in COST_FIELDS:
                if fname not in cost:
                    problems.append(f"{where}: cost missing {fname!r}")
            for fname in OPTIONAL_COST_FIELDS:
                value = cost.get(fname)
                if value is not None and fname in cost and (
                    not isinstance(value, (int, float)) or isinstance(value, bool)
                ):
                    problems.append(f"{where}: cost.{fname} has wrong type")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:  # pragma: no cover
    """Tiny entry point: validate the snapshots named on the CLI."""
    paths = [Path(p) for p in (argv or sys.argv[1:])]
    status = 0
    for path in paths:
        problems = validate_snapshot(json.loads(path.read_text()))
        for problem in problems:
            print(f"{path}: {problem}")
            status = 1
    return status

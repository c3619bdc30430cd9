"""Engine flight recorder: per-task ledger, timelines, Chrome traces.

Every :class:`~repro.engine.pool.RegionTask` a
:class:`~repro.engine.pool.CompilationEngine` finishes — serial or
pooled — can emit one :class:`FlightRecord` into a
:class:`FlightLedger`: the task's fingerprint key, cache hit/miss,
worker pid, submit/start/finish timestamps split into queue-wait vs
execute seconds, attempt count, and degradation level.  The ledger persists as JSONL through the same
atomic-rename discipline as the disk cache (temp file + ``os.replace``
in the destination directory), so a crash mid-flush can never leave a
half-written file under the final name; :func:`read_ledger` still
tolerates a truncated or corrupt trailing line (e.g. from an external
appender dying mid-write) by skipping it with a counted warning.

On top of the ledger sit the saturation analyses behind
``repro timeline``: per-worker Gantt lanes (:func:`analyze_ledger`,
:func:`render_timeline`), worker-idle fraction, peak/mean queue depth,
and the makespan critical path — plus :func:`to_chrome_trace`, which
exports the same lanes as Chrome trace-event JSON loadable in
Perfetto / ``chrome://tracing``.

Schema and verb guide: ``docs/telemetry.md``.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Schema tag stamped on every ledger line so future field changes can
#: be detected on read.
FLIGHT_SCHEMA_VERSION = 1

#: ``kind`` discriminator on every ledger line.
FLIGHT_KIND = "flight"

#: Keys a ledger line must carry to deserialize; anything missing one
#: is counted as corrupt and skipped.
_REQUIRED_KEYS = ("region", "worker", "submit_s", "start_s", "finish_s", "status")


@dataclass
class FlightRecord:
    """One finished task, as the engine's flight recorder saw it.

    Attributes:
        index: The task's merge index within its run.
        region: Region name.
        machine: Machine model name.
        scheduler: Scheduler name.
        fingerprint: Content-addressed schedule-cache key (SHA-256 hex)
            when caching was on, else ``None``.
        cache_status: ``"off"``, ``"hit"``, or ``"miss"``.
        worker: pid of the process that executed the task.
        submit_s: Unix time the parent submitted the task.
        start_s: Unix time the executing process picked it up.
        finish_s: Unix time the outcome was complete.
        queue_wait_s: ``start_s - submit_s`` (clamped at 0) — time spent
            waiting for a worker slot.
        execute_s: ``finish_s - start_s`` (clamped at 0) — time a
            process actually spent on the task.
        attempts: Executions the task took (1 = first try succeeded; 2 =
            finished inline after its worker failed).
        degradation_level: Fallback-chain level that served the result
            (0 = primary).
        status: Final region status (``ok``/``failed``).
        cycles: Simulator-verified cycle count of the result.
    """

    index: int
    region: str
    machine: str
    scheduler: str
    fingerprint: Optional[str]
    cache_status: str
    worker: int
    submit_s: float
    start_s: float
    finish_s: float
    queue_wait_s: float
    execute_s: float
    attempts: int = 1
    degradation_level: int = 0
    status: str = "ok"
    cycles: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe ledger line (adds ``kind`` and ``schema`` tags)."""
        out: Dict[str, Any] = {"kind": FLIGHT_KIND, "schema": FLIGHT_SCHEMA_VERSION}
        out.update(asdict(self))
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FlightRecord":
        """Inverse of :meth:`to_dict`; tolerant of extra keys.

        Args:
            data: One parsed ledger line.

        Returns:
            The reconstructed record.

        Raises:
            KeyError: When a required field is missing.
        """
        for key in _REQUIRED_KEYS:
            if key not in data:
                raise KeyError(key)
        return cls(
            index=int(data.get("index", 0)),
            region=str(data["region"]),
            machine=str(data.get("machine", "")),
            scheduler=str(data.get("scheduler", "")),
            fingerprint=data.get("fingerprint"),
            cache_status=str(data.get("cache_status", "off")),
            worker=int(data["worker"]),
            submit_s=float(data["submit_s"]),
            start_s=float(data["start_s"]),
            finish_s=float(data["finish_s"]),
            queue_wait_s=float(data.get("queue_wait_s", 0.0)),
            execute_s=float(data.get("execute_s", 0.0)),
            attempts=int(data.get("attempts", 1)),
            degradation_level=int(data.get("degradation_level", 0)),
            status=str(data["status"]),
            cycles=int(data.get("cycles", 0)),
        )


class FlightLedger:
    """In-memory flight-record accumulator with crash-safe persistence.

    The engine appends records as tasks finish; :meth:`flush` writes the
    whole ledger as JSONL via temp-file + :func:`os.replace` in the
    destination directory — the same atomic-rename discipline the disk
    cache uses — so readers never observe a torn file under the final
    name.
    """

    def __init__(self) -> None:
        self.records: List[FlightRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def append(self, record: FlightRecord) -> None:
        """Add one finished-task record.

        Args:
            record: The record to append.
        """
        self.records.append(record)

    def extend(self, records: Sequence[FlightRecord]) -> None:
        """Add many records (e.g. absorbed from a worker-side ledger).

        Args:
            records: The records to append, in order.
        """
        self.records.extend(records)

    def to_jsonl(self) -> str:
        """Serialize every record as one JSON object per line."""
        return "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in self.records)

    def flush(self, path: str) -> str:
        """Atomically write the ledger to ``path`` as JSONL.

        Args:
            path: Destination file path; parent directories are created.

        Returns:
            The destination path, for chaining.
        """
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(
            prefix=".flight-", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(self.to_jsonl())
            os.replace(temp_path, path)
        except BaseException:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
            raise
        return path


def read_ledger(path: str) -> Tuple[List[FlightRecord], int]:
    """Load a JSONL flight ledger, skipping corrupt lines.

    A truncated or otherwise corrupt line — typically the trailing line
    of a file an appender died while writing — is skipped and counted,
    never fatal; one :class:`UserWarning` summarizes the skips.  This
    mirrors the schedule cache's quarantine-not-crash policy for
    corrupt entries.

    Args:
        path: The ledger file to read.

    Returns:
        ``(records, skipped)`` — the parseable records in file order and
        the number of lines that were skipped as corrupt.
    """
    records: List[FlightRecord] = []
    skipped = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                if not isinstance(data, dict):
                    raise TypeError("ledger line is not an object")
                records.append(FlightRecord.from_dict(data))
            except (ValueError, KeyError, TypeError):
                skipped += 1
    if skipped:
        warnings.warn(
            f"flight ledger {path}: skipped {skipped} corrupt line(s)",
            UserWarning,
            stacklevel=2,
        )
    return records, skipped


# ----------------------------------------------------------------------
# Timeline / saturation analysis
# ----------------------------------------------------------------------


@dataclass
class WorkerLane:
    """One worker's Gantt lane.

    Attributes:
        worker: The worker pid.
        records: This worker's records, sorted by start time.
        busy_s: Total execute seconds on this lane.
        idle_fraction: 1 − busy/makespan (0 when the makespan is 0).
    """

    worker: int
    records: List[FlightRecord] = field(default_factory=list)
    busy_s: float = 0.0
    idle_fraction: float = 0.0


@dataclass
class TimelineStats:
    """Saturation summary of one flight ledger.

    Attributes:
        tasks: Number of records analyzed.
        workers: Worker pids observed, sorted.
        lanes: Per-worker Gantt lanes, sorted by pid.
        t0_s: Earliest submit time (the timeline origin).
        makespan_s: Latest finish minus earliest submit.
        total_execute_s: Sum of execute seconds over all tasks.
        total_queue_wait_s: Sum of queue-wait seconds over all tasks.
        idle_fraction: Mean of the per-worker idle fractions — the
            headroom left in the pool (0 = perfectly packed).
        peak_queue_depth: Maximum number of tasks simultaneously
            submitted-but-not-started.
        mean_queue_depth: Time-weighted mean of that depth over the
            makespan.
        critical_path_s: Busy time of the lane that finishes last —
            the serial chain bounding the makespan from below — or the
            single longest task if that is larger.
        cache_hits: Records served from the schedule cache.
        cache_misses: Records that fell through to a fresh compile.
    """

    tasks: int
    workers: List[int]
    lanes: List[WorkerLane]
    t0_s: float
    makespan_s: float
    total_execute_s: float
    total_queue_wait_s: float
    idle_fraction: float
    peak_queue_depth: int
    mean_queue_depth: float
    critical_path_s: float
    cache_hits: int
    cache_misses: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (lanes reduced to per-worker rollups)."""
        return {
            "tasks": self.tasks,
            "workers": list(self.workers),
            "t0_s": self.t0_s,
            "makespan_s": self.makespan_s,
            "total_execute_s": self.total_execute_s,
            "total_queue_wait_s": self.total_queue_wait_s,
            "idle_fraction": self.idle_fraction,
            "peak_queue_depth": self.peak_queue_depth,
            "mean_queue_depth": self.mean_queue_depth,
            "critical_path_s": self.critical_path_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "lanes": [
                {
                    "worker": lane.worker,
                    "tasks": len(lane.records),
                    "busy_s": lane.busy_s,
                    "idle_fraction": lane.idle_fraction,
                }
                for lane in self.lanes
            ],
        }


def analyze_ledger(records: Sequence[FlightRecord]) -> TimelineStats:
    """Reconstruct worker lanes and saturation metrics from a ledger.

    Args:
        records: The flight records of one run (any order).

    Returns:
        The :class:`TimelineStats` summary; all-zero when ``records``
        is empty.
    """
    if not records:
        return TimelineStats(
            tasks=0,
            workers=[],
            lanes=[],
            t0_s=0.0,
            makespan_s=0.0,
            total_execute_s=0.0,
            total_queue_wait_s=0.0,
            idle_fraction=0.0,
            peak_queue_depth=0,
            mean_queue_depth=0.0,
            critical_path_s=0.0,
            cache_hits=0,
            cache_misses=0,
        )
    t0 = min(r.submit_s for r in records)
    t_end = max(r.finish_s for r in records)
    makespan = max(0.0, t_end - t0)
    by_worker: Dict[int, List[FlightRecord]] = {}
    for record in records:
        by_worker.setdefault(record.worker, []).append(record)
    lanes: List[WorkerLane] = []
    for worker in sorted(by_worker):
        lane_records = sorted(by_worker[worker], key=lambda r: (r.start_s, r.index))
        busy = sum(r.execute_s for r in lane_records)
        idle = 1.0 - busy / makespan if makespan > 0 else 0.0
        lanes.append(
            WorkerLane(
                worker=worker,
                records=lane_records,
                busy_s=busy,
                idle_fraction=max(0.0, min(1.0, idle)),
            )
        )
    # Queue depth: +1 at submit, -1 at start, swept in time order.
    events = sorted(
        [(r.submit_s, 1) for r in records] + [(r.start_s, -1) for r in records]
    )
    depth = 0
    peak = 0
    weighted = 0.0
    last_t = t0
    for t, delta in events:
        weighted += depth * max(0.0, t - last_t)
        depth += delta
        peak = max(peak, depth)
        last_t = t
    mean_depth = weighted / makespan if makespan > 0 else 0.0
    last_lane = max(lanes, key=lambda lane: max(r.finish_s for r in lane.records))
    critical = max(last_lane.busy_s, max(r.execute_s for r in records))
    return TimelineStats(
        tasks=len(records),
        workers=sorted(by_worker),
        lanes=lanes,
        t0_s=t0,
        makespan_s=makespan,
        total_execute_s=sum(r.execute_s for r in records),
        total_queue_wait_s=sum(r.queue_wait_s for r in records),
        idle_fraction=(
            sum(lane.idle_fraction for lane in lanes) / len(lanes) if lanes else 0.0
        ),
        peak_queue_depth=peak,
        mean_queue_depth=mean_depth,
        critical_path_s=critical,
        cache_hits=sum(1 for r in records if r.cache_status == "hit"),
        cache_misses=sum(1 for r in records if r.cache_status == "miss"),
    )


#: Lane glyph per final task status.
_STATUS_GLYPHS = {"ok": "█", "failed": "×"}


def render_timeline(records: Sequence[FlightRecord], width: int = 72) -> str:
    """Render a ledger as a terminal Gantt timeline plus summary.

    One lane per worker pid; each task paints its ``[start, finish]``
    span with a status glyph (``█`` ok, ``×`` failed, ``▪`` served from
    cache, ``?`` any other status).  Below the lanes, the saturation summary
    from :func:`analyze_ledger`.

    Args:
        records: The flight records of one run.
        width: Column budget for the lane area.

    Returns:
        The multi-line rendering ("empty ledger" when no records).
    """
    stats = analyze_ledger(records)
    if not stats.tasks:
        return "empty ledger"
    width = max(16, width)
    span = stats.makespan_s or 1.0

    def column(t: float) -> int:
        return max(0, min(width - 1, int((t - stats.t0_s) / span * width)))

    lines: List[str] = []
    label_width = max(len(str(lane.worker)) for lane in stats.lanes)
    for lane in stats.lanes:
        cells = [" "] * width
        for record in lane.records:
            glyph = _STATUS_GLYPHS.get(record.status, "?")
            if record.cache_status == "hit" and record.status == "ok":
                glyph = "▪"
            lo = column(record.start_s)
            hi = max(lo, column(record.finish_s))
            for c in range(lo, hi + 1):
                cells[c] = glyph
        lines.append(
            f"w{lane.worker:<{label_width}} │{''.join(cells)}│ "
            f"{len(lane.records):>3} tasks  busy {lane.busy_s:7.3f}s  "
            f"idle {lane.idle_fraction * 100:5.1f}%"
        )
    lines.append("")
    lines.append(
        f"tasks {stats.tasks}  workers {len(stats.workers)}  "
        f"makespan {stats.makespan_s:.3f}s  critical-path {stats.critical_path_s:.3f}s"
    )
    lines.append(
        f"execute {stats.total_execute_s:.3f}s  queue-wait "
        f"{stats.total_queue_wait_s:.3f}s  idle {stats.idle_fraction * 100:.1f}%  "
        f"queue depth peak {stats.peak_queue_depth} / mean {stats.mean_queue_depth:.2f}"
    )
    lookups = stats.cache_hits + stats.cache_misses
    if lookups:
        lines.append(
            f"cache {stats.cache_hits}/{lookups} hits "
            f"({stats.cache_hits / lookups * 100:.1f}%)"
        )
    return "\n".join(lines)


def to_chrome_trace(records: Sequence[FlightRecord]) -> Dict[str, Any]:
    """Export a ledger as Chrome trace-event JSON (Perfetto-loadable).

    Each record becomes one complete (``"ph": "X"``) event on the lane
    of its worker pid, with microsecond ``ts``/``dur`` relative to the
    earliest submit; queue waits are emitted as separate thin events on
    the same lane so saturation is visible in the trace viewer.

    Args:
        records: The flight records of one run.

    Returns:
        ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` —
        serializable with :func:`json.dumps` and loadable in
        ``chrome://tracing`` or Perfetto.
    """
    t0 = min((r.submit_s for r in records), default=0.0)
    events: List[Dict[str, Any]] = []
    for record in records:
        base_args = {
            "status": record.status,
            "cache": record.cache_status,
            "attempts": record.attempts,
            "degradation_level": record.degradation_level,
            "cycles": record.cycles,
        }
        if record.queue_wait_s > 0:
            events.append(
                {
                    "name": f"wait {record.region}",
                    "cat": "queue",
                    "ph": "X",
                    "ts": (record.submit_s - t0) * 1e6,
                    "dur": record.queue_wait_s * 1e6,
                    "pid": 1,
                    "tid": record.worker,
                    "args": {"queue_wait_s": record.queue_wait_s},
                }
            )
        events.append(
            {
                "name": f"{record.region} [{record.scheduler}]",
                "cat": record.status,
                "ph": "X",
                "ts": (record.start_s - t0) * 1e6,
                "dur": record.execute_s * 1e6,
                "pid": 1,
                "tid": record.worker,
                "args": base_args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}

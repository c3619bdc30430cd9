"""Parallel compilation engine: region fan-out with deterministic merge.

A :class:`CompilationEngine` runs independent region-scheduling tasks —
schedule, simulate, optionally verify, optionally serve/store cache
entries — either inline (``jobs=1``) or across a
:class:`~concurrent.futures.ProcessPoolExecutor` (``jobs>1``).  Three
rules make the parallel path indistinguishable from the serial one:

* **index-keyed merge** — every task carries its position; outcomes are
  reassembled by index, so completion order can never reorder results;
* **per-region determinism** — schedulers in this repository derive
  their randomness from ``(seed, region.name)`` (see
  :class:`~repro.core.convergent.ConvergentScheduler`), so a region
  schedules identically no matter which worker runs it or what ran
  before it in that worker;
* **no lost regions** — a task whose worker dies (or whose pool breaks)
  is re-executed inline in the parent; worker failures degrade
  throughput, never results.

Workers are observability-clean: the initializer uninstalls any
fork-inherited ambient tracer, each task records into a private
:class:`~repro.observability.metrics.MetricsRegistry` and (when
requested) a private :class:`~repro.observability.tracer.Tracer`, and
the parent merges registries in index order and absorbs trace records
tagged with the worker's pid.
"""

from __future__ import annotations

import contextlib
import os
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union

import multiprocessing

from ..harness.experiment import RegionResult, _record_region_metrics, _run_region
from ..ir.regions import Region
from ..machine.machine import Machine
from ..observability.flight import FlightLedger, FlightRecord
from ..observability.metrics import MetricsRegistry
from ..observability.tracer import Tracer, tracing, uninstall
from ..schedulers.base import Scheduler
from ..schedulers.schedule import Schedule
from .cache import CacheSpec, ScheduleCache, ScheduleReplay
from .fingerprint import Fingerprint, schedule_key

#: Worker-side failures of the infrastructure rather than of the task:
#: a lost worker or a broken pipe to it.  A task that fails with one is
#: finished inline in the parent even when it does not capture errors.
INFRASTRUCTURE_ERRORS = (BrokenExecutor, EOFError, OSError)

#: ``TaskOutcome.cache_status`` values.
CACHE_OFF = "off"
CACHE_HIT = "hit"
CACHE_MISS = "miss"


@dataclass
class RegionTask:
    """One schedulable unit of work, tagged with its merge position.

    Attributes:
        index: Position of this task in the submitting run; outcomes
            are merged by this index, never by completion order.
        region: The region to schedule.
        machine: Target machine model.
        scheduler: Scheduler instance (must be picklable for ``jobs>1``;
            every registered scheduler is).
        check_values: Replay dataflow against the reference interpreter.
        capture_errors: Capture scheduling failures into the result
            instead of raising.
        verify: Gate the region on the static verifier.
        collect_metrics: Record per-region counters/histograms into a
            private registry returned on the outcome.
        trace: Record scheduling/simulation spans into a private tracer
            returned (serialized) on the outcome.
        submit_s: Unix time the engine submitted the task; the flight
            recorder derives queue-wait from it.  0.0 until the engine
            stamps it.
    """

    index: int
    region: Region
    machine: Machine
    scheduler: Scheduler
    check_values: bool = True
    capture_errors: bool = False
    verify: bool = False
    collect_metrics: bool = False
    trace: bool = False
    submit_s: float = 0.0


@dataclass
class TaskOutcome:
    """Everything one :class:`RegionTask` produced.

    Attributes:
        index: Copied from the task; the merge key.
        result: The region outcome (cycles always simulator-verified,
            whether scheduled fresh or served from cache).
        schedule: The verified schedule (``None`` when the region
            failed).  On a cache hit it is a fresh copy rebuilt in the
            requesting region's uid space on first access (a property
            over the hit's :class:`~repro.engine.cache.ScheduleReplay`):
            an outcome nobody reads builds none, and one pickled before
            it is read carries the replay, never the region.
        metrics: Private-registry snapshot when the task collected
            metrics, else ``None``.
        trace_records: Serialized tracer records when the task traced,
            else empty.
        cache_status: :data:`CACHE_OFF`, :data:`CACHE_HIT`, or
            :data:`CACHE_MISS`.
        cache_stats: Delta of the executing cache's counters caused by
            this task (empty when caching was off).
        worker: pid of the process that executed the task.
        attempts: Executions this task took: 1, or 2 when its worker
            failed and the parent finished it inline.
        degradation_level: ``FallbackReport.level`` of the run that
            produced the result (0 = primary member or non-chain
            scheduler; >0 = a fallback member served it).
        fingerprint: Content-addressed cache key (SHA-256 hex) the task
            was looked up under, or ``None`` when caching was off.
        started_s: Unix time the executing process picked the task up.
        finished_s: Unix time the outcome was fully populated.
    """

    index: int
    result: RegionResult
    metrics: Optional[Dict[str, Dict]] = None
    trace_records: List[Dict[str, Any]] = field(default_factory=list)
    cache_status: str = CACHE_OFF
    cache_stats: Dict[str, int] = field(default_factory=dict)
    worker: int = 0
    attempts: int = 1
    degradation_level: int = 0
    fingerprint: Optional[str] = None
    started_s: float = 0.0
    finished_s: float = 0.0
    _schedule: Union[Schedule, ScheduleReplay, None] = field(default=None, repr=False)

    @property
    def schedule(self) -> Optional[Schedule]:
        """The verified schedule; a hit's is built here on first access."""
        if isinstance(self._schedule, ScheduleReplay):
            self._schedule = self._schedule.build()
        return self._schedule

    @schedule.setter
    def schedule(self, value: Optional[Schedule]) -> None:
        self._schedule = value


def execute_task(
    task: RegionTask,
    cache: Optional[ScheduleCache],
    fingerprint: Optional[Fingerprint] = None,
) -> TaskOutcome:
    """Run one task to completion in the calling thread.

    The single owner of a region task's semantics — cache lookup and
    store, replay of hits, captured failures — used by pool workers, by
    the engine's inline runs, and by the compile server's warm fast lane
    (which calls it outside any engine so cache hits never queue behind
    a batch, and passes the fingerprints it already parsed so a warm
    region is never re-canonicalized).

    Args:
        task: The work item.
        cache: Schedule cache to consult/populate, or ``None``.
        fingerprint: The task's cache key, when the caller already
            holds it; ``None`` computes it from the task.

    Returns:
        The fully-populated :class:`TaskOutcome`.
    """
    registry = MetricsRegistry() if task.collect_metrics else None
    tracer = Tracer() if task.trace else None
    stats_before = cache.stats.to_dict() if cache is not None else {}
    outcome = TaskOutcome(
        index=task.index,
        result=None,  # type: ignore[arg-type]  # filled below
        worker=os.getpid(),
        started_s=time.time(),
    )
    with tracing(tracer) if tracer is not None else contextlib.nullcontext():
        cache_key = fingerprint
        scheduler_ran = False
        if cache is not None:
            if cache_key is None:
                cache_key = schedule_key(
                    task.region,
                    task.machine,
                    task.scheduler,
                    check_values=task.check_values,
                    verify=task.verify,
                )
            outcome.fingerprint = cache_key.key
            lookup_started = time.perf_counter()
            hit = cache.get(cache_key, task.region)
            if hit is not None:
                outcome.cache_status = CACHE_HIT
                outcome._schedule = hit.replay
                outcome.result = RegionResult(
                    region_name=task.region.name,
                    cycles=hit.cycles,
                    transfers=hit.transfers,
                    utilization=hit.utilization,
                    compile_seconds=time.perf_counter() - lookup_started,
                    n_instructions=len(task.region.ddg),
                    comm_busy=hit.comm_busy,
                    verified=hit.verified,
                    diagnostics=list(hit.diagnostics),
                )
            else:
                outcome.cache_status = CACHE_MISS
        if outcome.result is None:
            result, schedule = _run_region(
                task.region,
                task.machine,
                task.scheduler,
                task.check_values,
                task.capture_errors,
                task.verify,
            )
            scheduler_ran = True
            outcome.result = result
            outcome.schedule = schedule
            report = getattr(task.scheduler, "last_report", None)
            if report is not None:
                outcome.degradation_level = report.level
            if cache_key is not None and result.ok and schedule is not None:
                cache.put(
                    cache_key,
                    schedule,
                    cycles=result.cycles,
                    transfers=result.transfers,
                    utilization=result.utilization,
                    comm_busy=result.comm_busy,
                    compile_seconds=result.compile_seconds,
                    verified=result.verified,
                    diagnostics=result.diagnostics,
                )
        if registry is not None:
            _record_region_metrics(
                registry,
                outcome.result,
                task.scheduler if scheduler_ran else None,
            )
        if tracer is not None and cache is not None:
            tracer.event(
                "cache_lookup",
                status=outcome.cache_status,
                region=task.region.name,
            )

    if cache is not None:
        after = cache.stats.to_dict()
        outcome.cache_stats = {
            key: after[key] - stats_before.get(key, 0) for key in after
        }
        if registry is not None:
            for key, delta in outcome.cache_stats.items():
                if delta:
                    registry.inc(f"cache.{key}", delta)
    if registry is not None:
        outcome.metrics = registry.snapshot()
    if tracer is not None:
        outcome.trace_records = [r.to_dict() for r in tracer.records]
    outcome.finished_s = time.time()
    return outcome


def flight_record(task: RegionTask, outcome: TaskOutcome) -> FlightRecord:
    """The flight-ledger row of one finished task.

    Splits the task's wall time into queue-wait (submit → start) and
    execute (start → finish); the one row layout shared by the engine
    and the compile server's warm lane.

    Args:
        task: The finished work item (carries ``submit_s``).
        outcome: Its outcome (carries ``started_s``/``finished_s``).

    Returns:
        The :class:`~repro.observability.flight.FlightRecord`.
    """
    queue_wait = 0.0
    if task.submit_s and outcome.started_s:
        queue_wait = max(0.0, outcome.started_s - task.submit_s)
    execute = max(0.0, outcome.finished_s - outcome.started_s)
    return FlightRecord(
        index=task.index,
        region=task.region.name,
        machine=task.machine.name,
        scheduler=getattr(task.scheduler, "name", type(task.scheduler).__name__),
        fingerprint=outcome.fingerprint,
        cache_status=outcome.cache_status,
        worker=outcome.worker,
        submit_s=task.submit_s or outcome.started_s,
        start_s=outcome.started_s,
        finish_s=outcome.finished_s,
        queue_wait_s=queue_wait,
        execute_s=execute,
        attempts=outcome.attempts,
        degradation_level=outcome.degradation_level,
        status=outcome.result.status,
        cycles=outcome.result.cycles,
    )


# ----------------------------------------------------------------------
# Worker-process state
# ----------------------------------------------------------------------

_WORKER_CACHE: Optional[ScheduleCache] = None


def _init_worker(cache_spec: Optional[CacheSpec]) -> None:
    """Process-pool initializer: clean tracer state, build the cache.

    Forked workers inherit the parent's ambient tracer; recording into
    it from a child process would be silently lost (and confusing), so
    it is uninstalled and each task records into a private tracer
    instead.

    Args:
        cache_spec: Recipe for this worker's :class:`ScheduleCache`
            (sharing the parent's disk layer, if any), or ``None``.
    """
    global _WORKER_CACHE
    uninstall()
    _WORKER_CACHE = ScheduleCache.from_spec(cache_spec)


def worker_cache() -> Optional[ScheduleCache]:
    """The executing process's cache (worker-local; ``None`` if off)."""
    return _WORKER_CACHE


@contextlib.contextmanager
def _as_worker_cache(cache: Optional[ScheduleCache]) -> Iterator[None]:
    """Temporarily expose ``cache`` via :func:`worker_cache` in-parent.

    Used when :meth:`CompilationEngine.map` runs a helper inline
    (serial mode, or a retry after a pool failure) so cache-aware
    helpers behave the same in both processes.  Region tasks never read
    :func:`worker_cache` and are passed their cache directly.
    """
    global _WORKER_CACHE
    previous = _WORKER_CACHE
    _WORKER_CACHE = cache
    try:
        yield
    finally:
        _WORKER_CACHE = previous


def _pool_run_task(task: RegionTask) -> TaskOutcome:
    """Top-level pool target: execute one task with the worker cache."""
    return execute_task(task, _WORKER_CACHE)


def _pool_call(fn: Callable[[Any], Any], item: Any) -> Any:
    """Top-level pool target for :meth:`CompilationEngine.map`.

    Returns ``(result, cache_stats_delta)`` so the parent can fold the
    worker cache's activity into the shared stats."""
    cache = _WORKER_CACHE
    before = cache.stats.to_dict() if cache is not None else {}
    result = fn(item)
    delta: Dict[str, int] = {}
    if cache is not None:
        after = cache.stats.to_dict()
        delta = {key: after[key] - before.get(key, 0) for key in after}
    return result, delta


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


class CompilationEngine:
    """Schedules regions across a worker pool with deterministic merge.

    Args:
        jobs: Worker-process count; ``1`` executes inline (no pool, no
            pickling).
        cache: Shared :class:`ScheduleCache`; workers rebuild an
            equivalent cache from its :meth:`~ScheduleCache.spec` (a
            disk-backed cache is then genuinely shared through the
            filesystem; a memory-only cache becomes per-worker).
        ledger: Optional :class:`~repro.observability.flight.
            FlightLedger`.  When given, every finished task appends one
            :class:`~repro.observability.flight.FlightRecord` (cache
            status, worker pid, queue-wait vs execute split, attempts,
            degradation level); the caller flushes the ledger to disk.

    Per-task queue-wait and execute seconds are always recorded into
    :attr:`telemetry` as ``engine.queue_wait_seconds.<status>`` /
    ``engine.execute_seconds.<status>`` histograms (see
    :data:`~repro.observability.metrics.ENGINE_HISTOGRAM_PREFIXES`).

    The executor is created lazily on first parallel use and should be
    released with :meth:`close` (or by using the engine as a context
    manager).  If the pool breaks (a worker is killed hard), affected
    and subsequent tasks run inline in the parent — results are
    unaffected, :attr:`pool_breaks` counts the incident, and each
    rescued task counts one ``resilience.rescues`` in
    :attr:`telemetry`.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ScheduleCache] = None,
        ledger: Optional[FlightLedger] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.ledger = ledger
        self.telemetry = MetricsRegistry()
        self.pool_breaks = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        self._broken = False

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "CompilationEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def _pool(self) -> Optional[ProcessPoolExecutor]:
        """The live executor, creating it on first use; ``None`` when
        serial or after the pool broke."""
        if self.jobs == 1 or self._broken:
            return None
        if self._executor is None:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                context = multiprocessing.get_context()
            spec = self.cache.spec() if self.cache is not None else None
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=context,
                initializer=_init_worker,
                initargs=(spec,),
            )
        return self._executor

    def _mark_broken(self) -> None:
        """Record a dead pool and stop submitting to it.

        One incident breaks every in-flight future; only the first
        report counts, so :attr:`pool_breaks` tallies incidents."""
        if self._broken:
            return
        self.pool_breaks += 1
        self._broken = True
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # -- flight recording ----------------------------------------------

    def _observe_task(self, task: RegionTask, outcome: TaskOutcome) -> None:
        """Record one finished task into telemetry and the flight ledger.

        Always splits the task's wall time into queue-wait (submit →
        start) and execute (start → finish) histograms per final status;
        additionally appends the task's :func:`flight_record` when the
        engine carries a ledger.

        Args:
            task: The finished work item (carries ``submit_s``).
            outcome: Its outcome (carries ``started_s``/``finished_s``).
        """
        record = flight_record(task, outcome)
        status = record.status
        self.telemetry.observe(f"engine.queue_wait_seconds.{status}", record.queue_wait_s)
        self.telemetry.observe(f"engine.execute_seconds.{status}", record.execute_s)
        if self.ledger is not None:
            self.ledger.append(record)

    # -- region tasks --------------------------------------------------

    def _absorb(
        self, task: RegionTask, outcome: TaskOutcome, outcomes: Dict[int, TaskOutcome]
    ) -> None:
        """Fold one finished outcome into the merge map + telemetry."""
        if self.cache is not None and outcome.worker != os.getpid():
            self.cache.stats.merge(outcome.cache_stats)
        self._observe_task(task, outcome)
        outcomes[task.index] = outcome

    def _handle_worker_error(
        self, task: RegionTask, exc: BaseException, outcomes: Dict[int, TaskOutcome]
    ) -> None:
        """Finish a task whose worker failed inline, or re-raise.

        A lost worker (the first one also gives the pool up) or a
        broken pipe is never the task's fault, and a task that captures
        errors must yield an outcome either way: both run again in the
        parent.  Any other exception is the task's own and propagates —
        the fail-fast contract of ``capture_errors=False``.
        """
        if isinstance(exc, BrokenProcessPool):
            self._mark_broken()
        if not (isinstance(exc, INFRASTRUCTURE_ERRORS) or task.capture_errors):
            raise exc
        self.telemetry.inc("resilience.rescues")
        outcome = execute_task(task, self.cache)
        outcome.attempts = 2
        self._absorb(task, outcome, outcomes)

    def run_tasks(self, tasks: Sequence[RegionTask]) -> List[TaskOutcome]:
        """Execute every task; outcomes are returned in *index* order.

        The engine's only region-task loop.  Without a pool (``jobs=1``,
        or after the pool was given up) tasks run inline one by one.
        With a pool, every task is submitted at once and the results
        are collected once all have finished; a task whose worker failed
        goes to :meth:`_handle_worker_error`.  A pool that breaks at
        ``submit`` is given up there, and the tasks not yet submitted run
        inline — so every task yields exactly one outcome.

        Args:
            tasks: The work items (indices need not be contiguous, but
                must be unique).

        Returns:
            One :class:`TaskOutcome` per task, sorted by task index.
        """
        outcomes: Dict[int, TaskOutcome] = {}
        inline: Sequence[RegionTask] = tasks
        executor = self._pool()
        if executor is not None:
            futures: Dict[Future, RegionTask] = {}
            refused: Optional[BrokenProcessPool] = None
            for task in tasks:
                task.submit_s = time.time()
                try:
                    futures[executor.submit(_pool_run_task, task)] = task
                except BrokenProcessPool as exc:
                    refused = exc
                    break
            wait(list(futures))
            for future, task in futures.items():
                try:
                    outcome = future.result()
                except Exception as exc:  # noqa: BLE001 - worker boundary
                    self._handle_worker_error(task, exc, outcomes)
                    continue
                self._absorb(task, outcome, outcomes)
            inline = tasks[len(futures):]
            if refused is not None:
                self._handle_worker_error(inline[0], refused, outcomes)
                inline = inline[1:]
        for task in inline:
            task.submit_s = time.time()
            self._absorb(task, execute_task(task, self.cache), outcomes)
        return [outcomes[t.index] for t in sorted(tasks, key=lambda t: t.index)]

    # -- generic fan-out -----------------------------------------------

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Apply a picklable top-level function to every item.

        Results are returned in *item* order regardless of completion
        order.  Items whose worker died are retried inline; other
        exceptions propagate (the serial semantics).

        Args:
            fn: Top-level function of one argument.  Inside workers it
                may consult :func:`worker_cache`; inline execution
                exposes the engine's own cache the same way.
            items: The inputs (each must be picklable for ``jobs>1``).

        Returns:
            ``[fn(item) for item in items]``, computed with up to
            ``jobs`` processes.
        """
        before = self.cache.stats.to_dict() if self.cache is not None else {}
        executor = self._pool()
        if executor is None:
            with _as_worker_cache(self.cache):
                results = [fn(item) for item in items]
            self._count_cache_delta(before)
            return results
        futures = [executor.submit(_pool_call, fn, item) for item in items]
        results = [None] * len(items)
        retry: List[int] = []
        for position, future in enumerate(futures):
            try:
                result, cache_delta = future.result()
            except BrokenProcessPool:
                self._mark_broken()
                retry.append(position)
                continue
            results[position] = result
            if self.cache is not None and cache_delta:
                self.cache.stats.merge(cache_delta)
        for position in retry:
            with _as_worker_cache(self.cache):
                results[position] = fn(items[position])
        self._count_cache_delta(before)
        return results

    def _count_cache_delta(self, before: Dict[str, int]) -> None:
        """Count shared-cache activity since ``before`` into telemetry.

        Args:
            before: Snapshot of ``self.cache.stats.to_dict()`` taken at
                the start of the fan-out (empty when caching is off).
        """
        if self.cache is None:
            return
        after = self.cache.stats.to_dict()
        for key in after:
            delta = after[key] - before.get(key, 0)
            if delta:
                self.telemetry.inc(f"cache.{key}", delta)


@contextlib.contextmanager
def engine_or_inline(
    engine: Optional[CompilationEngine], cache: Optional[ScheduleCache] = None
) -> Iterator[CompilationEngine]:
    """Yield ``engine``, or an inline engine built and closed here.

    Every harness entry point takes one optional engine and runs on it
    through this helper.

    Args:
        engine: The caller's engine; it belongs to the caller and is
            left open.  ``None`` builds a private inline
            :class:`CompilationEngine` for the ``with`` block.
        cache: Schedule cache for the inline engine; ignored when
            ``engine`` is given.

    Returns:
        A context manager yielding the engine to run on.
    """
    if engine is not None:
        yield engine
        return
    with CompilationEngine(cache=cache) as inline:
        yield inline

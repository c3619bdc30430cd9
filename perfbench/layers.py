"""Outside-in layer tracing: spans around the calls into each layer.

Nothing under ``src/`` is edited.  :func:`install` replaces layer entry
points where the program looks them up — a class attribute for methods,
the importing module's global for functions imported by name (``simulate``
in ``repro.harness.experiment``, ``build_region_index`` in
``repro.core.kernels``) — and returns the undo list.  Each wrapper
records a span with its parent on a per-thread stack; a layer's self time
is its span's duration minus its child spans.  Spans stay in memory and
are folded into a layer table when the traced pass ends.

The untraced passes that produce the end-to-end metrics install nothing.
"""

from __future__ import annotations

import json
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.core.convergent as convergent_mod
import repro.core.kernels as kernels_mod
import repro.core.metrics as core_metrics_mod
import repro.core.passes.basic as basic_mod
import repro.engine.pool as pool_mod
import repro.harness.experiment as experiment_mod
import repro.schedulers.list_scheduler as list_scheduler_mod
import repro.serve.server as server_mod
import repro.serve.wire as wire_mod
import repro.sim.simulator as simulator_mod
from repro.core.guard import PassGuard
from repro.core.passes import PASS_REGISTRY
from repro.core.weights import PreferenceMatrix
from repro.engine.cache import ScheduleCache
from repro.engine.pool import CompilationEngine
from repro.observability.flight import FlightLedger

#: Modules that look ``feasible_clusters`` up by name on the convergent
#: path; every one is counted.
FEASIBLE_CALL_SITES = (list_scheduler_mod, convergent_mod, kernels_mod, basic_mod, simulator_mod)

#: Unit of every per-layer metric, as ``BENCHMARK.json`` declares it.
#: Shares (``%``) are of the traced wall: round wall on the compile
#: workloads, client-observed request-seconds on serve_mixed.  A layer a
#: workload never reaches reads 0.  ``perfbench/README.md`` maps each to
#: the end-to-end metric and workload it is expected to move.
UNITS: Dict[str, str] = {
    metric["name"]: metric["unit"]
    for metric in json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )["per_layer"]
}


@dataclass
class Span:
    """One finished call into a layer."""

    name: str
    parent: Optional[str]
    start: float
    end: float
    self_s: float
    tag: Any = None

    @property
    def duration(self) -> float:
        """Wall seconds from entry to exit."""
        return self.end - self.start


class SpanRecorder:
    """Collects spans from every thread and counts call-site hits."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        tag: Optional[Callable[[tuple, Any], Any]] = None,
    ) -> Callable:
        """``fn`` recording one span per call under ``name``.

        Args:
            name: The layer name.
            fn: The callable to time.
            tag: Optional ``tag(args, result)`` stored on the span, used
                to attribute a span to the request that caused it.
        """
        recorder = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack()
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                span = Span(
                    name,
                    stack[-1][0] if stack else None,
                    start,
                    end,
                    duration - frame[1],
                    tag(args, result) if tag is not None else None,
                )
                with recorder._lock:
                    recorder.spans.append(span)

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """``fn`` counting its calls under ``name``."""
        counts = self.counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def self_seconds(self) -> Dict[str, float]:
        """Self seconds summed per layer name."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_s
        return totals


class Patches:
    """Attribute replacements that :meth:`undo` puts back in reverse."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)``.

        Static and class methods keep their descriptor kind; a method
        inherited by ``owner`` is shadowed on ``owner`` and the shadow is
        deleted again on undo.
        """
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(make(raw.__func__)))
            elif isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(raw.__func__)))
            elif raw is None:
                setattr(owner, attr, make(getattr(owner, attr)))
                self._undo.append(lambda: delattr(owner, attr))
                return
            else:
                setattr(owner, attr, make(raw))
        else:
            raw = getattr(owner, attr)
            setattr(owner, attr, make(raw))
        self._undo.append(lambda: setattr(owner, attr, raw))

    def undo(self) -> None:
        """Restore every replaced attribute."""
        while self._undo:
            self._undo.pop()()


def _module_shim(module: types.ModuleType, **wrapped: Callable) -> types.SimpleNamespace:
    """A stand-in for an imported module whose named functions are wrapped."""
    names = {name: getattr(module, name) for name in dir(module) if not name.startswith("__")}
    return types.SimpleNamespace(**{**names, **wrapped})


def _hit(_args: tuple, result: Any) -> bool:
    """Whether a cache lookup returned an entry."""
    return result is not None


def _batch_seeds(args: tuple, _result: Any) -> Tuple[int, ...]:
    """Scheduler seeds of an engine wave: one per cold request."""
    return tuple(sorted({task.scheduler.seed for task in args[1]}))


def install(recorder: SpanRecorder, serve: bool) -> Patches:
    """Wrap every layer entry point; ``serve`` selects the serve names.

    Args:
        recorder: Receives the spans and counts.
        serve: Name the engine and cache spans as serving layers and
            wrap the server's own entry points too.

    Returns:
        The patches; call :meth:`Patches.undo` to remove every wrapper.
    """
    patches = Patches()

    def span(owner: Any, attr: str, name: str, tag=None) -> None:
        patches.replace(owner, attr, lambda fn: recorder.wrap(name, fn, tag))

    span(experiment_mod, "run_program", "harness.run_program")
    span(experiment_mod, "simulate", "sim.simulate")
    span(convergent_mod.ConvergentScheduler, "converge", "core.converge")
    span(convergent_mod.ConvergentScheduler, "extract_assignment", "core.extract_assignment")
    span(kernels_mod, "build_region_index", "core.region_index")
    span(PreferenceMatrix, "for_region", "core.matrix_init")
    span(core_metrics_mod.ConvergenceTrace, "observe_pass", "core.convergence_trace")
    span(PassGuard, "run", "core.guard")
    # Read every original first: a pass class that inherits ``apply``
    # must not pick up another pass's wrapper.
    originals = {name: cls.apply for name, cls in PASS_REGISTRY.items()}
    for name, cls in PASS_REGISTRY.items():
        patches.replace(
            cls, "apply", lambda _fn, n=name: recorder.wrap(f"core.pass.{n}", originals[n])
        )
    span(list_scheduler_mod.ListScheduler, "schedule", "schedulers.list_schedule")
    for module in FEASIBLE_CALL_SITES:
        patches.replace(
            module,
            "feasible_clusters",
            lambda fn: recorder.count("schedulers.feasible_clusters_calls", fn),
        )
    span(pool_mod, "schedule_key", "engine.fingerprint")
    span(ScheduleCache, "put", "engine.cache_put")
    if not serve:
        span(CompilationEngine, "run_tasks", "engine.run_tasks")
        span(ScheduleCache, "get", "engine.cache_get", tag=_hit)
        return patches
    span(CompilationEngine, "run_tasks", "serve.engine", tag=_batch_seeds)
    span(ScheduleCache, "get", "serve.cache_get")
    span(server_mod, "parse_request", "serve.parse", tag=lambda _a, parsed: getattr(parsed, "seed", None))
    span(server_mod, "build_scheduler", "serve.parse")
    span(wire_mod, "schedule_key", "serve.fingerprint")
    span(server_mod, "aggregate_program_result", "serve.response")
    span(server_mod, "program_result_to_dict", "serve.response")
    span(server_mod.CompileServer, "_response_for", "serve.response_cache", tag=_hit)
    span(server_mod.CompileServer, "_serve_warm", "serve.warm_lane")
    span(server_mod, "replace", "serve.parse")
    span(ScheduleCache, "contains", "serve.cache_get")
    span(FlightLedger, "append", "serve.ledger")
    # The server records its request time before encoding the response,
    # so encoding is kept apart and charged outside that time.
    patches.replace(server_mod, "json", lambda real: _module_shim(
        real,
        loads=recorder.wrap("serve.json", real.loads),
        dumps=recorder.wrap("serve.json_encode", real.dumps),
    ))
    patches.replace(server_mod, "hashlib", lambda real: _module_shim(
        real, sha256=recorder.wrap("serve.parse", real.sha256),
    ))
    return patches


def _shares(values: Dict[str, float], base: float) -> Dict[str, float]:
    """Every share of :data:`UNITS`, as a percentage of ``base``."""
    return {
        name: 100.0 * values.get(name, 0.0) / base if base > 0 else 0.0
        for name, unit in UNITS.items()
        if unit == "%"
    }


def compile_table(recorder: SpanRecorder, walls: List[float]) -> Dict[str, float]:
    """The layer table of a traced compile workload.

    Args:
        recorder: Spans recorded during the traced rounds.
        walls: Wall seconds of each traced round.

    Returns:
        Every :data:`UNITS` metric; the shares sum to 100 with
        ``residual``.
    """
    base = sum(walls)
    selfs = dict(recorder.self_seconds())
    for span_name, layer in (
        ("core.converge", "core.converge_self"),
        ("harness.run_program", "harness.run_program_self"),
        ("engine.run_tasks", "engine.run_tasks_self"),
    ):
        selfs[layer] = selfs.pop(span_name, 0.0)
    selfs["residual"] = base - sum(selfs.values())
    table: Dict[str, float] = {name: 0.0 for name in UNITS}
    table.update(_shares(selfs, base))
    lookups = [s for s in recorder.spans if s.name == "engine.cache_get"]
    table["engine.cache_lookups"] = len(lookups) / len(walls)
    table["engine.cache_hit_ratio"] = (
        sum(1 for s in lookups if s.tag) / len(lookups) if lookups else 0.0
    )
    table["schedulers.feasible_clusters_calls"] = (
        recorder.counts["schedulers.feasible_clusters_calls"] / len(walls)
    )
    table["trace.wall_s"] = base / len(walls)
    return table


def _delta(after: Dict[str, Any], before: Dict[str, Any], kind: str, name: str, key: str = "") -> float:
    """Change of one ``/metrics`` counter, or of one histogram field."""
    def read(snapshot: Dict[str, Any]) -> float:
        value = snapshot.get(kind, {}).get(name, 0)
        return float(value.get(key, 0.0)) if key else float(value)

    return read(after) - read(before)


def serve_table(
    recorder: SpanRecorder,
    request_seconds: float,
    rounds: int,
    before: Dict[str, Any],
    after: Dict[str, Any],
) -> Dict[str, float]:
    """The layer table of the traced ``serve_mixed`` rounds.

    The base is client-observed request-seconds.  A span counts once per
    request waiting on it: an engine wave counts once per cold request it
    carries.  ``client.transport`` is client-observed time minus the
    server's own request time (``serve.request_seconds`` from
    ``/metrics``); ``residual`` is server request time no named layer
    covers.

    Args:
        recorder: Spans recorded during the traced rounds.
        request_seconds: Sum of client-observed request latencies.
        rounds: Traced rounds.
        before: ``/metrics`` payload before the traced rounds.
        after: ``/metrics`` payload after them.

    Returns:
        Every :data:`UNITS` metric.
    """
    values: Dict[str, float] = defaultdict(float)
    parsed_at: Dict[int, float] = {}
    for span in recorder.spans:
        if span.name == "serve.engine":
            values[span.name] += span.duration * len(span.tag)
        else:
            values[span.name] += span.self_s
        if span.name == "serve.parse" and span.tag is not None:
            parsed_at[span.tag] = span.end
    for span in recorder.spans:
        if span.name == "serve.engine":
            values["serve.batch_wait"] += sum(
                span.start - parsed_at[seed] for seed in span.tag if seed in parsed_at
            )
    serve_before, serve_after = before["serve"], after["serve"]
    server_seconds = _delta(serve_after, serve_before, "histograms", "serve.request_seconds.ok", "total")
    encode = values.pop("serve.json_encode", 0.0)
    named_server = sum(v for k, v in values.items() if k.startswith("serve."))
    values["serve.json"] += encode
    values["client.transport"] = request_seconds - server_seconds - encode
    values["residual"] = server_seconds - named_server
    queue_names = [
        name for name in after["engine"].get("histograms", {})
        if name.startswith("engine.queue_wait_seconds.")
    ]
    values["serve.queue_wait"] = sum(
        _delta(after["engine"], before["engine"], "histograms", name, "total")
        for name in queue_names
    )
    table: Dict[str, float] = {name: 0.0 for name in UNITS}
    table.update(_shares(values, request_seconds))
    # The closing GET /metrics is itself counted in ``serve.requests``.
    requests = _delta(serve_after, serve_before, "counters", "serve.requests") - 1
    parse_hits = _delta(serve_after, serve_before, "counters", "serve.parse_hits")
    replays = sum(1 for s in recorder.spans if s.name == "serve.response_cache" and s.tag)
    batches = _delta(serve_after, serve_before, "histograms", "serve.batch_size", "count")
    batched = _delta(serve_after, serve_before, "histograms", "serve.batch_size", "total")
    table["serve.requests"] = requests
    table["serve.parse_hit_ratio"] = parse_hits / requests if requests else 0.0
    table["serve.response_cache_hit_ratio"] = replays / requests if requests else 0.0
    table["serve.coalesced"] = _delta(serve_after, serve_before, "counters", "serve.coalesced")
    table["serve.batch_size"] = batched / batches if batches else 0.0
    table["trace.wall_s"] = request_seconds / rounds
    return table

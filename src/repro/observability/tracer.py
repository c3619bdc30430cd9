"""Structured tracing for the scheduling pipeline.

A :class:`Tracer` collects timestamped **spans** (timed phases: a
``converge`` call, one pass application, list scheduling, simulation)
and **events** (point-in-time facts: a guard rollback, a matrix-delta
measurement) as flat, JSON-safe records.  Records round-trip through
JSONL (:meth:`Tracer.to_jsonl` / :func:`read_jsonl`) so a convergence
trace can be dumped by ``repro trace``, archived, diffed, and re-read.

The default tracer everywhere is :data:`NULL_TRACER`, whose hooks are
no-ops returning a shared null context manager — the happy path pays
one attribute check per hook and nothing else, keeping untraced
scheduling behavior- and speed-neutral.

Tracing is ambient: :func:`install` a tracer (or use the
:func:`tracing` context manager) and
:meth:`~repro.core.convergent.ConvergentScheduler.converge` plus every
:func:`timed` hook in the pipeline (simulation, harness phases) record
into it.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

PathLike = Union[str, Path]

#: Record kind for a timed phase.
KIND_SPAN = "span"
#: Record kind for a point-in-time event.
KIND_EVENT = "event"


def _json_safe(value: Any) -> Any:
    """Coerce ``value`` to something ``json.dumps`` accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    # numpy scalars expose .item(); anything else degrades to str.
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except Exception:  # pragma: no cover - defensive
            pass
    return str(value)


@dataclass
class TraceRecord:
    """One trace record: a timed span or a point event.

    Attributes:
        kind: :data:`KIND_SPAN` or :data:`KIND_EVENT`.
        name: Phase or event name (``"converge"``, ``"pass"``, ...).
        start_s: Seconds since the tracer's epoch.
        duration_s: Wall time of the span; ``None`` for events.
        depth: Span-nesting depth at record time (0 = top level).
        fields: Free-form JSON-safe attributes.
    """

    kind: str
    name: str
    start_s: float
    duration_s: Optional[float] = None
    depth: int = 0
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-safe dict; ``fields`` are inlined at top level."""
        out: Dict[str, Any] = {
            "kind": self.kind,
            "name": self.name,
            "start_s": round(self.start_s, 9),
            "depth": self.depth,
        }
        if self.duration_s is not None:
            out["duration_s"] = round(self.duration_s, 9)
        for key, value in self.fields.items():
            if key not in out:
                out[key] = _json_safe(value)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceRecord":
        """Inverse of :meth:`to_dict`."""
        reserved = {"kind", "name", "start_s", "duration_s", "depth"}
        return cls(
            kind=data["kind"],
            name=data["name"],
            start_s=float(data["start_s"]),
            duration_s=(
                float(data["duration_s"]) if data.get("duration_s") is not None else None
            ),
            depth=int(data.get("depth", 0)),
            fields={k: v for k, v in data.items() if k not in reserved},
        )


class NullTracer:
    """The do-nothing tracer installed by default.

    Every hook is a no-op; :meth:`span` returns one shared
    ``contextlib.nullcontext`` so tracing-disabled code paths allocate
    nothing.  Code that would compute metric values for the tracer
    should check :attr:`enabled` first and skip the computation.
    """

    enabled: bool = False
    _null_context = contextlib.nullcontext()

    def span(self, name: str, **fields: Any) -> contextlib.AbstractContextManager:
        """No-op context manager."""
        return self._null_context

    def event(self, name: str, **fields: Any) -> None:
        """Discard the event."""

    @property
    def records(self) -> List[TraceRecord]:
        """Always empty."""
        return []


#: The shared no-op tracer; identity-comparable (``tracer is NULL_TRACER``).
NULL_TRACER = NullTracer()


class Tracer:
    """Collects spans and events with wall-clock timing.

    Args:
        clock: Monotonic time source, seconds; injectable for tests.

    Spans nest: the tracer keeps a depth counter so renderers can
    reconstruct the phase hierarchy without parent pointers.  A span
    record is appended when the span *closes*, so records are ordered
    by completion time; events are appended immediately.
    """

    enabled: bool = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self.records: List[TraceRecord] = []
        self._depth = 0

    def _now(self) -> float:
        return self._clock() - self._epoch

    @contextlib.contextmanager
    def span(self, name: str, **fields: Any) -> Iterator[TraceRecord]:
        """Time a phase; the record is appended when the block exits.

        Args:
            name: Phase name (``"converge"``, ``"list_schedule"``, ...).
            fields: JSON-safe attributes attached to the record; the
                yielded record's ``fields`` may be extended inside the
                block (e.g. with metrics computed mid-phase).

        Yields:
            The in-flight :class:`TraceRecord`; its ``duration_s`` is
            filled in when the block exits.
        """
        record = TraceRecord(
            kind=KIND_SPAN,
            name=name,
            start_s=self._now(),
            depth=self._depth,
            fields=dict(fields),
        )
        self._depth += 1
        started = self._clock()
        try:
            yield record
        finally:
            record.duration_s = self._clock() - started
            self._depth -= 1
            self.records.append(record)

    def event(self, name: str, **fields: Any) -> TraceRecord:
        """Record a point-in-time event.

        Args:
            name: Event name (``"pass"``, ``"guard"``, ...).
            fields: JSON-safe attributes.

        Returns:
            The appended :class:`TraceRecord`.
        """
        record = TraceRecord(
            kind=KIND_EVENT,
            name=name,
            start_s=self._now(),
            depth=self._depth,
            fields=dict(fields),
        )
        self.records.append(record)
        return record

    def absorb(
        self, records: List[Dict[str, Any]], **extra: Any
    ) -> List[TraceRecord]:
        """Append serialized records from another tracer (e.g. a worker).

        Args:
            records: :meth:`TraceRecord.to_dict` dumps, in the order the
                producing tracer recorded them.
            extra: Attributes stamped onto every absorbed record (e.g.
                ``worker=<pid>`` for per-worker span attribution).

        Returns:
            The appended :class:`TraceRecord` list.  Absorbed records
            keep their own relative timestamps; only their tag fields
            change.
        """
        absorbed = []
        for data in records:
            record = TraceRecord.from_dict(dict(data))
            for key, value in extra.items():
                record.fields.setdefault(key, _json_safe(value))
            self.records.append(record)
            absorbed.append(record)
        return absorbed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def spans(self, name: Optional[str] = None) -> List[TraceRecord]:
        """All span records, optionally filtered by name."""
        return [
            r for r in self.records
            if r.kind == KIND_SPAN and (name is None or r.name == name)
        ]

    def events(self, name: Optional[str] = None) -> List[TraceRecord]:
        """All event records, optionally filtered by name."""
        return [
            r for r in self.records
            if r.kind == KIND_EVENT and (name is None or r.name == name)
        ]

    def total_seconds(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(r.duration_s or 0.0 for r in self.spans(name))

    # ------------------------------------------------------------------
    # JSONL round-trip
    # ------------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per line, in record order."""
        return "\n".join(json.dumps(r.to_dict(), sort_keys=True) for r in self.records)

    def write(self, path: PathLike) -> None:
        """Write the JSONL trace to ``path`` (with a trailing newline)."""
        text = self.to_jsonl()
        Path(path).write_text(text + "\n" if text else "")


def read_jsonl(source: Union[PathLike, str]) -> List[TraceRecord]:
    """Parse trace records from a JSONL file path or literal text.

    Args:
        source: Path to a ``.jsonl`` file, or the JSONL text itself
            (anything containing a newline or brace is treated as text).

    Returns:
        The parsed :class:`TraceRecord` list, in file order.
    """
    text = str(source)
    if "{" not in text:
        text = Path(source).read_text()
    records = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            records.append(TraceRecord.from_dict(json.loads(line)))
    return records


# ----------------------------------------------------------------------
# Ambient tracer: pipeline hooks that don't thread a tracer explicitly
# ----------------------------------------------------------------------

_active: Union[Tracer, NullTracer] = NULL_TRACER


def install(tracer: Union[Tracer, NullTracer]) -> None:
    """Make ``tracer`` the ambient tracer used by :func:`timed` hooks."""
    global _active
    _active = tracer


def uninstall() -> None:
    """Restore the ambient tracer to :data:`NULL_TRACER`."""
    install(NULL_TRACER)


def active() -> Union[Tracer, NullTracer]:
    """The currently installed ambient tracer (never ``None``)."""
    return _active


@contextlib.contextmanager
def tracing(tracer: Union[Tracer, NullTracer]) -> Iterator[Union[Tracer, NullTracer]]:
    """Install ``tracer`` for the duration of the block, then restore."""
    previous = _active
    install(tracer)
    try:
        yield tracer
    finally:
        install(previous)


def timed(name: str, **fields: Any) -> contextlib.AbstractContextManager:
    """Span on the ambient tracer; a shared no-op when tracing is off.

    This is the hook placed inside the pipeline (e.g. around
    :func:`repro.sim.simulate`): with no tracer installed it costs one
    attribute check and returns a shared null context.
    """
    tracer = _active
    if not tracer.enabled:
        return NullTracer._null_context
    return tracer.span(name, **fields)

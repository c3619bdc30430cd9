"""Content-addressed schedule cache: in-memory LRU + optional disk.

A :class:`ScheduleCache` maps a :class:`~repro.engine.fingerprint.
Fingerprint` to the outcome of a scheduling request: the verified
schedule (stored in *canonical* instruction coordinates so isomorphic
regions can share entries) plus the recorded result numbers (cycles,
transfers, utilization, communication busy cycles, compile seconds,
verifier verdict).  Lookups translate the canonical schedule back into
the requesting region's uid space through the fingerprint's
permutation, so a hit is usable — and cycle-identical — even when the
requester labels its instructions differently than the producer did.

Two layers:

* **memory** — a bounded LRU of decoded, immutable entries: the result
  numbers plus the canonical schedule as tuples of ints, coerced once
  when stored or read from disk.  A hit returns the numbers and a
  :class:`ScheduleReplay`; its *fresh*
  :class:`~repro.schedulers.schedule.Schedule` is built from the entry
  only when a caller reads it, so a hit nobody reads builds nothing and
  mutating a returned schedule can never corrupt the cached copy;
* **disk** (optional) — one ``<key>.json`` per entry under a cache
  directory, written atomically (temp file + rename) so concurrent
  workers sharing the directory never observe torn entries.

The disk layer is **crash-safe**: every file is a self-describing
wrapper (``kind``/``file_version``) carrying a SHA-256 checksum over
the entry payload.  A file that is unreadable, truncated, bit-flipped,
or written by an incompatible version *never* raises into a compile —
it degrades to a miss, is counted (``stats.corrupt``), and is moved to
a ``quarantine/`` subdirectory for post-mortem (``stats.quarantined``)
so the same corruption is never re-read.  :meth:`ScheduleCache.
verify_disk` audits a whole directory, :meth:`ScheduleCache.gc` empties
the quarantine and prunes stale temp files; both back the ``repro
cache`` CLI verb.

Invalidation is purely by fingerprint: any change to the DDG, machine,
scheduler configuration, seed, or harness flags produces a different
key (see :mod:`repro.engine.fingerprint`), and a
:data:`~repro.engine.fingerprint.FINGERPRINT_SCHEMA_VERSION` bump
orphans every old entry at once.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..ir.regions import Region
from ..schedulers.schedule import CommEvent, Schedule, ScheduledOp
from .fingerprint import FINGERPRINT_SCHEMA_VERSION, Fingerprint

PathLike = Union[str, Path]

#: The ``kind`` discriminator of a serialized cache entry.
ENTRY_KIND = "schedule_cache_entry"

#: The ``kind`` discriminator of the checksummed on-disk wrapper.
FILE_KIND = "schedule_cache_file"

#: Bump on any incompatible change to the on-disk wrapper format; files
#: with a different version are quarantined, never misread.
FILE_VERSION = 1

#: Subdirectory corrupt/version-skewed entry files are moved into.
QUARANTINE_DIR = "quarantine"

#: Default number of entries the in-memory LRU retains.
DEFAULT_CAPACITY = 512


def _payload_checksum(payload: str) -> str:
    """SHA-256 hex digest of one entry's serialized payload."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheSpec:
    """Picklable recipe for rebuilding an equivalent cache in a worker.

    Attributes:
        capacity: In-memory LRU capacity.
        disk_dir: Shared on-disk layer directory, or ``None`` for a
            memory-only cache (each worker then keeps its own LRU).
    """

    capacity: int = DEFAULT_CAPACITY
    disk_dir: Optional[str] = None


@dataclass
class CacheHit:
    """A successful lookup: the recorded numbers, and a schedule on demand.

    :attr:`schedule` is built from :attr:`replay` on first access and
    kept; a hit nobody reads builds no schedule.

    Attributes:
        replay: What the schedule is built from (see
            :class:`ScheduleReplay`).
        cycles: Simulator cycle count recorded when the entry was
            stored.
        transfers: Recorded transfer count.
        utilization: Recorded FU-slot utilization.
        comm_busy: Recorded busy communication-resource cycles.
        compile_seconds: Scheduling wall time of the *original* compile
            (what the hit saved, not what it cost).
        verified: Static-verifier verdict recorded at store time
            (``None`` when the producer did not verify).
        diagnostics: Rendered verifier diagnostics from store time.
    """

    replay: "ScheduleReplay"
    cycles: int
    transfers: int
    utilization: float
    comm_busy: int
    compile_seconds: float
    verified: Optional[bool] = None
    diagnostics: List[str] = field(default_factory=list)
    _schedule: Optional[Schedule] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def schedule(self) -> Schedule:
        """A fresh :class:`Schedule` (never aliased with the stored copy
        or another hit's) with uids translated into the requesting
        region's labelling; built on first access."""
        if self._schedule is None:
            self._schedule = self.replay.build()
        return self._schedule


@dataclass
class CacheStats:
    """Monotonic counters describing one cache's traffic.

    ``corrupt`` counts entries that failed decoding or checksum
    verification (each also counted as a miss — corruption never
    raises); ``quarantined`` counts the subset whose on-disk file was
    successfully moved into the ``quarantine/`` subdirectory.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0
    quarantined: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit; 0.0 with no lookups."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, int]:
        """JSON-safe counter dump."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
        }

    def merge(self, other: Dict[str, int]) -> None:
        """Fold another stats dump (e.g. from a worker) into this one."""
        self.hits += int(other.get("hits", 0))
        self.misses += int(other.get("misses", 0))
        self.stores += int(other.get("stores", 0))
        self.evictions += int(other.get("evictions", 0))
        self.corrupt += int(other.get("corrupt", 0))
        self.quarantined += int(other.get("quarantined", 0))


#: One canonical op row: ``(position, cluster, unit, start, latency)``.
OpRow = Tuple[int, int, int, int, int]

#: One canonical comm row: ``(position, src, dst, issue, arrival,
#: resources)``, each resource ``(name, a, b)``.
CommRow = Tuple[int, int, int, int, int, Tuple[Tuple[str, int, int], ...]]


@dataclass(frozen=True)
class _Entry:
    """One stored outcome, decoded once and never mutated.

    The memory layer holds these; a hit's :class:`ScheduleReplay` builds
    a fresh :class:`Schedule` from one when read.  The schedule is kept
    in canonical coordinates as sorted rows of ints (see :data:`OpRow`,
    :data:`CommRow`), so a build translates positions through the
    requester's permutation and coerces nothing.

    Two values are derived from the rows once, on construction, so
    :meth:`fits` can tell whether a requester's graph can hold the
    schedule without building it: :attr:`position_end`, one past the
    largest op or comm position (0 with no rows), and
    :attr:`positions_sound`, true when no position is negative and no
    op position repeats.
    """

    cycles: int
    transfers: int
    utilization: float
    comm_busy: int
    compile_seconds: float
    verified: Optional[bool]
    diagnostics: Tuple[str, ...]
    scheduler_name: str
    machine_name: str
    ops: Tuple[OpRow, ...]
    comms: Tuple[CommRow, ...]
    position_end: int = field(init=False, repr=False, compare=False)
    positions_sound: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        op_positions = [row[0] for row in self.ops]
        positions = op_positions + [row[0] for row in self.comms]
        object.__setattr__(self, "position_end", max(positions, default=-1) + 1)
        object.__setattr__(
            self,
            "positions_sound",
            min(positions, default=0) >= 0
            and len(set(op_positions)) == len(op_positions),
        )

    def fits(self, fingerprint: Fingerprint) -> bool:
        """Whether the schedule fits the graph ``fingerprint`` keys.

        False when a position falls outside the graph's ``n``
        instructions, is negative, or places one op twice — an entry
        stored under a colliding key, which the build would reject or
        (negative positions) silently wrap.
        """
        return self.positions_sound and self.position_end <= len(fingerprint.permutation)

    def text(self, key: str) -> str:
        """The entry's JSON payload, as the disk layer stores it."""
        return json.dumps(
            {
                "kind": ENTRY_KIND,
                "schema_version": FINGERPRINT_SCHEMA_VERSION,
                "key": key,
                "cycles": self.cycles,
                "transfers": self.transfers,
                "utilization": self.utilization,
                "comm_busy": self.comm_busy,
                "compile_seconds": self.compile_seconds,
                "verified": self.verified,
                "diagnostics": list(self.diagnostics),
                "schedule": {
                    "scheduler_name": self.scheduler_name,
                    "machine_name": self.machine_name,
                    "ops": self.ops,
                    "comms": self.comms,
                },
            },
            sort_keys=True,
        )


def _op_row(position: Any, cluster: Any, unit: Any, start: Any, latency: Any) -> OpRow:
    """One op row with every number coerced to ``int``."""
    return (int(position), int(cluster), int(unit), int(start), int(latency))


def _comm_row(position: Any, src: Any, dst: Any, issue: Any, arrival: Any,
              resources: Any) -> CommRow:
    """One comm row with every number coerced to ``int``."""
    return (
        int(position), int(src), int(dst), int(issue), int(arrival),
        tuple((str(name), int(a), int(b)) for name, a, b in resources),
    )


def _decode_entry(text: str) -> _Entry:
    """Decode and validate one entry payload.

    Raises:
        KeyError, ValueError, TypeError, IndexError, AttributeError: On
            a malformed payload.
    """
    data = json.loads(text)
    schedule = data["schedule"]
    return _Entry(
        cycles=int(data["cycles"]),
        transfers=int(data["transfers"]),
        utilization=float(data["utilization"]),
        comm_busy=int(data["comm_busy"]),
        compile_seconds=float(data["compile_seconds"]),
        verified=data.get("verified"),
        diagnostics=tuple(data.get("diagnostics", [])),
        scheduler_name=str(schedule.get("scheduler_name", "")),
        machine_name=str(schedule.get("machine_name", "")),
        ops=tuple(_op_row(*row) for row in schedule["ops"]),
        comms=tuple(_comm_row(*row) for row in schedule["comms"]),
    )


def _schedule_from_entry(
    entry: _Entry, fingerprint: Fingerprint, region_name: str
) -> Schedule:
    """Rebuild a schedule in the requesting region's uid space."""
    uid_of = fingerprint.uid_of_position()
    schedule = Schedule(
        region_name=region_name,
        machine_name=entry.machine_name,
        scheduler_name=entry.scheduler_name,
    )
    for position, cluster, unit, start, latency in entry.ops:
        schedule.add_op(ScheduledOp(uid_of[position], cluster, unit, start, latency))
    comms = [
        CommEvent(uid_of[position], src, dst, issue, arrival, resources)
        for position, src, dst, issue, arrival, resources in entry.comms
    ]
    comms.sort(key=lambda ev: (ev.issue, ev.producer_uid, ev.dst))
    for event in comms:
        schedule.add_comm(event)
    return schedule


@dataclass(frozen=True)
class ScheduleReplay:
    """What one hit's schedule is built from, and the one way to build it.

    Holds the decoded entry, the requester's fingerprint (for its
    permutation) and the region's name — never the region itself, so an
    outcome that carries a replay across a process boundary pickles the
    entry's rows, not the region's graph.

    Attributes:
        entry: The decoded cache entry (immutable).
        fingerprint: The requester's key and canonical permutation.
        region_name: Name the built schedule is labelled with.
    """

    entry: _Entry
    fingerprint: Fingerprint
    region_name: str

    def build(self) -> Schedule:
        """A fresh schedule in the requester's uid space."""
        return _schedule_from_entry(self.entry, self.fingerprint, self.region_name)


class ScheduleCache:
    """Two-layer (memory LRU + optional disk) schedule cache.

    Args:
        capacity: Maximum in-memory entries before LRU eviction.
        disk_dir: Directory for the persistent layer; created on first
            store.  ``None`` keeps the cache memory-only.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        disk_dir: Optional[PathLike] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, _Entry]" = OrderedDict()
        # One cache object may be shared between threads (the compile
        # server's warm fast lane and its engine lane); the lock keeps
        # the LRU order and the stats counters coherent.  Held only for
        # sub-millisecond lookup/store critical sections.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Spec round-trip (process-pool workers rebuild equivalent caches)
    # ------------------------------------------------------------------

    def spec(self) -> CacheSpec:
        """The picklable recipe for an equivalent cache."""
        return CacheSpec(
            capacity=self.capacity,
            disk_dir=str(self.disk_dir) if self.disk_dir is not None else None,
        )

    @classmethod
    def from_spec(cls, spec: Optional[CacheSpec]) -> Optional["ScheduleCache"]:
        """Rebuild a cache from :meth:`spec`; ``None`` passes through."""
        if spec is None:
            return None
        return cls(capacity=spec.capacity, disk_dir=spec.disk_dir)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def get(self, fingerprint: Fingerprint, region: Region) -> Optional[CacheHit]:
        """Look up a request; return its numbers and a schedule replay.

        No schedule is built here: the hit's schedule is built in
        ``region``'s uid space when first read.  An entry whose
        positions do not fit the requester's graph (see
        :meth:`_Entry.fits`) is refused as it would be by a build: a
        miss, counted ``corrupt`` and quarantined on disk.

        Args:
            fingerprint: The request key (see :func:`~repro.engine.
                fingerprint.schedule_key`).
            region: The requesting region — names the schedule; the
                fingerprint's permutation supplies its uid labelling.

        Returns:
            A fresh :class:`CacheHit`, or ``None`` on a miss.
        """
        with self._lock:
            entry = self._memory.get(fingerprint.key)
            if entry is not None:
                self._memory.move_to_end(fingerprint.key)
            elif self.disk_dir is not None:
                entry = self._disk_read(fingerprint.key)
                if entry is not None:
                    self._memory_store(fingerprint.key, entry)
            if entry is None:
                self.stats.misses += 1
                return None
            if not entry.fits(fingerprint):
                # Positions that do not fit the requester's graph (an
                # entry stored under a colliding key) are a miss —
                # counted, quarantined on disk, never raised into a compile.
                self._memory.pop(fingerprint.key, None)
                self.stats.corrupt += 1
                if self.disk_dir is not None:
                    self._quarantine(self._disk_path(fingerprint.key))
                self.stats.misses += 1
                return None
            self.stats.hits += 1
        return CacheHit(
            replay=ScheduleReplay(entry, fingerprint, region.name),
            cycles=entry.cycles,
            transfers=entry.transfers,
            utilization=entry.utilization,
            comm_busy=entry.comm_busy,
            compile_seconds=entry.compile_seconds,
            verified=entry.verified,
            diagnostics=list(entry.diagnostics),
        )

    def contains(self, key: str) -> bool:
        """Probe for an entry without serving it or touching the stats.

        Used by the compile server to decide whether a request can take
        the warm fast lane.  A positive probe is advisory only — the
        entry can be evicted (or found corrupt) before the follow-up
        :meth:`get`, which then simply compiles.

        Args:
            key: The fingerprint key (:attr:`~repro.engine.fingerprint.
                Fingerprint.key`).

        Returns:
            True when the key is present in the memory layer or as an
            on-disk entry file.
        """
        with self._lock:
            if key in self._memory:
                return True
        if self.disk_dir is None:
            return False
        return self._disk_path(key).is_file()

    def put(
        self,
        fingerprint: Fingerprint,
        schedule: Schedule,
        cycles: int,
        transfers: int,
        utilization: float,
        comm_busy: int,
        compile_seconds: float,
        verified: Optional[bool] = None,
        diagnostics: Optional[List[str]] = None,
    ) -> None:
        """Store one verified outcome under ``fingerprint``.

        The schedule is serialized into canonical coordinates
        immediately, so later mutation of the caller's object cannot
        reach the cache.

        Args:
            fingerprint: The request key.
            schedule: The simulator-verified schedule to store.
            cycles: Simulator cycle count.
            transfers: Inter-cluster transfer count.
            utilization: FU-slot utilization.
            comm_busy: Busy communication-resource cycles.
            compile_seconds: Scheduling wall time being saved.
            verified: Static-verifier verdict, when the run was gated.
            diagnostics: Rendered verifier diagnostics, when gated.
        """
        permutation = fingerprint.permutation
        entry = _Entry(
            cycles=int(cycles),
            transfers=int(transfers),
            utilization=float(utilization),
            comm_busy=int(comm_busy),
            compile_seconds=float(compile_seconds),
            verified=verified,
            diagnostics=tuple(diagnostics or ()),
            scheduler_name=str(schedule.scheduler_name),
            machine_name=str(schedule.machine_name),
            ops=tuple(sorted(
                _op_row(permutation[op.uid], op.cluster, op.unit, op.start, op.latency)
                for op in schedule.ops.values()
            )),
            comms=tuple(sorted(
                _comm_row(permutation[ev.producer_uid], ev.src, ev.dst,
                          ev.issue, ev.arrival, ev.resources)
                for ev in schedule.comms
            )),
        )
        text = entry.text(fingerprint.key) if self.disk_dir is not None else None
        with self._lock:
            self._memory_store(fingerprint.key, entry)
            if text is not None:
                self._disk_write(fingerprint.key, text)
            self.stats.stores += 1

    def __len__(self) -> int:
        return len(self._memory)

    # ------------------------------------------------------------------
    # Layers
    # ------------------------------------------------------------------

    def _memory_store(self, key: str, entry: _Entry) -> None:
        """Insert into the LRU, evicting the oldest entry when full."""
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def _disk_path(self, key: str) -> Path:
        """On-disk location of one entry."""
        return self.disk_dir / f"{key}.json"

    def _quarantine_dir(self) -> Path:
        """The quarantine subdirectory (not created until needed)."""
        return self.disk_dir / QUARANTINE_DIR

    def _quarantine(self, path: Path) -> bool:
        """Move one bad entry file into ``quarantine/``; count it.

        Args:
            path: The corrupt/skewed file.  A path that no longer
                exists (or cannot be moved) is simply not quarantined.

        Returns:
            True when the file was moved.
        """
        try:
            if not path.exists():
                return False
            target_dir = self._quarantine_dir()
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(str(path), str(target_dir / path.name))
        except OSError:
            return False
        self.stats.quarantined += 1
        return True

    @staticmethod
    def _unwrap(text: str) -> str:
        """Validate one on-disk wrapper and return the entry payload.

        Args:
            text: Raw file contents.

        Returns:
            The checksummed entry payload.

        Raises:
            ValueError: On any wrapper problem — not JSON, wrong
                ``kind``, version skew, or checksum mismatch.
        """
        wrapper = json.loads(text)
        if not isinstance(wrapper, dict):
            raise ValueError("cache file is not an object")
        if wrapper.get("kind") != FILE_KIND:
            raise ValueError(f"unexpected cache file kind {wrapper.get('kind')!r}")
        if wrapper.get("file_version") != FILE_VERSION:
            raise ValueError(
                f"cache file version skew: {wrapper.get('file_version')!r}"
            )
        payload = wrapper.get("payload")
        if not isinstance(payload, str):
            raise ValueError("cache file payload missing")
        if wrapper.get("sha256") != _payload_checksum(payload):
            raise ValueError("cache file checksum mismatch")
        return payload

    def _disk_read(self, key: str) -> Optional[_Entry]:
        """Read, verify and decode one entry from disk.

        A missing file is a plain miss.  An unreadable, corrupt,
        truncated, version-skewed or malformed file is counted
        (``corrupt``), quarantined, and reported as a miss — disk damage
        can degrade hit rate, never a compile.

        Args:
            key: The fingerprint key of the entry.

        Returns:
            The decoded entry, or ``None``.
        """
        path = self._disk_path(key)
        try:
            return _decode_entry(self._unwrap(path.read_text()))
        except FileNotFoundError:
            return None
        except (OSError, UnicodeDecodeError, KeyError, ValueError, TypeError,
                IndexError, AttributeError):
            self.stats.corrupt += 1
            self._quarantine(path)
            return None

    def _disk_write(self, key: str, text: str) -> None:
        """Atomically persist one entry (checksummed wrapper + rename)."""
        wrapped = json.dumps(
            {
                "kind": FILE_KIND,
                "file_version": FILE_VERSION,
                "sha256": _payload_checksum(text),
                "payload": text,
            },
            sort_keys=True,
        )
        try:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix=f".{key[:12]}-", suffix=".tmp", dir=str(self.disk_dir)
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(wrapped)
                os.replace(tmp_name, self._disk_path(key))
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:  # pragma: no cover - disk layer is best-effort
            pass

    # ------------------------------------------------------------------
    # Disk maintenance (the `repro cache` CLI verb)
    # ------------------------------------------------------------------

    def disk_stats(self) -> Dict[str, int]:
        """Census of the disk layer: entries, bytes, quarantine backlog.

        Returns:
            ``{"entries", "bytes", "quarantined", "tmp_files"}`` counts
            (all zero for a memory-only cache).
        """
        stats = {"entries": 0, "bytes": 0, "quarantined": 0, "tmp_files": 0}
        if self.disk_dir is None or not self.disk_dir.exists():
            return stats
        for path in self.disk_dir.iterdir():
            if path.is_file() and path.suffix == ".json":
                stats["entries"] += 1
                stats["bytes"] += path.stat().st_size
            elif path.is_file() and path.suffix == ".tmp":
                stats["tmp_files"] += 1
        quarantine = self._quarantine_dir()
        if quarantine.exists():
            stats["quarantined"] = sum(
                1 for p in quarantine.iterdir() if p.is_file()
            )
        return stats

    def verify_disk(self) -> Dict[str, int]:
        """Audit every on-disk entry; quarantine the bad ones.

        Each ``<key>.json`` is checked end to end: wrapper shape, file
        version, SHA-256 checksum, entry JSON, entry ``kind``,
        fingerprint ``schema_version``, and the entry decode :meth:`get`
        runs.  Files failing any check are
        moved to ``quarantine/`` and counted.

        Returns:
            ``{"checked", "ok", "corrupt", "version_skew",
            "quarantined"}`` counts for the scan.
        """
        report = {
            "checked": 0, "ok": 0, "corrupt": 0,
            "version_skew": 0, "quarantined": 0,
        }
        if self.disk_dir is None or not self.disk_dir.exists():
            return report
        before_quarantined = self.stats.quarantined
        for path in sorted(self.disk_dir.iterdir()):
            if not (path.is_file() and path.suffix == ".json"):
                continue
            report["checked"] += 1
            problem: Optional[str] = None
            try:
                payload = self._unwrap(path.read_text())
                entry = json.loads(payload)
                if entry.get("kind") != ENTRY_KIND:
                    problem = "corrupt"
                elif entry.get("schema_version") != FINGERPRINT_SCHEMA_VERSION:
                    problem = "version_skew"
                else:
                    _decode_entry(payload)  # what get() would serve
            except ValueError as exc:
                problem = "version_skew" if "version skew" in str(exc) else "corrupt"
            except (OSError, UnicodeDecodeError, TypeError, KeyError, IndexError,
                    AttributeError):
                problem = "corrupt"
            if problem is None:
                report["ok"] += 1
            else:
                report[problem] += 1
                self.stats.corrupt += 1
                self._quarantine(path)
        report["quarantined"] = self.stats.quarantined - before_quarantined
        return report

    def gc(self) -> Dict[str, int]:
        """Empty the quarantine and remove stale temp files.

        Returns:
            ``{"quarantine_removed", "tmp_removed"}`` counts.
        """
        removed = {"quarantine_removed": 0, "tmp_removed": 0}
        if self.disk_dir is None or not self.disk_dir.exists():
            return removed
        quarantine = self._quarantine_dir()
        if quarantine.exists():
            for path in quarantine.iterdir():
                try:
                    path.unlink()
                    removed["quarantine_removed"] += 1
                except OSError:
                    pass
        for path in self.disk_dir.iterdir():
            if path.is_file() and path.suffix == ".tmp":
                try:
                    path.unlink()
                    removed["tmp_removed"] += 1
                except OSError:
                    pass
        return removed

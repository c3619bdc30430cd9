"""Convergence metrics and a counters/histograms registry.

Three things live here:

* :func:`matrix_delta` — the per-pass measurement behind ``repro
  trace``: given a snapshot of the preference matrix from *before* a
  pass, quantify what the pass did to it (L1 weight churn) alongside
  the matrix's current sharpness (mean normalized entropy, mean
  clamped confidence).
* :class:`MetricsRegistry` — a tiny counters-and-histograms registry
  the harness aggregates into :class:`~repro.harness.experiment.
  ProgramResult` and :func:`repro.harness.reporting.format_metrics`
  renders.  Snapshots are plain JSON-safe dicts so they survive the
  results round-trip unchanged.
* :class:`QuantileHistogram` — the registry's one histogram type: an
  exact count/sum/min/max summary plus a fixed log-scale bucket layout
  whose merge is exact and associative, giving p50/p90/p99 accessors
  with a documented relative error bound (see ``docs/telemetry.md``).
  Serialization is schema-versioned and stays backward-compatible: a
  legacy summary-only dict loads through
  :meth:`QuantileHistogram.from_dict` with no buckets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.weights import PreferenceMatrix

#: Confidence values are clamped here before averaging so a single
#: fully-decided instruction (confidence = inf) cannot drown the mean.
CONFIDENCE_CAP = 100.0

#: Counter names the engine records into its telemetry registry
#: (:attr:`repro.engine.pool.CompilationEngine.telemetry`) when a
#: worker fails, also copied into the bench snapshot environment:
#: ``resilience.rescues`` counts tasks finished inline in the parent
#: after their worker was lost or raised.  A lost pool itself is
#: counted by :attr:`~repro.engine.pool.CompilationEngine.pool_breaks`.
RESILIENCE_COUNTERS = ("resilience.rescues",)

#: Cache-outcome counters the engine folds into its telemetry registry,
#: one per :meth:`repro.engine.cache.CacheStats.to_dict` field.
CACHE_COUNTERS = (
    "cache.hits",
    "cache.misses",
    "cache.stores",
    "cache.evictions",
    "cache.corrupt",
    "cache.quarantined",
)

#: Region statuses a finished task can report
#: (:data:`repro.harness.experiment.STATUS_OK` et al. minus
#: ``partial``, which only program-level results carry).
ENGINE_TASK_STATUSES = ("ok", "failed")

#: Per-task timing histograms the engine records, suffixed with the
#: task's final status: ``engine.queue_wait_seconds.<status>`` is the
#: submit→start gap (time spent waiting for a worker slot) and
#: ``engine.execute_seconds.<status>`` is start→finish (time a worker
#: actually spent compiling).  Splitting the two makes saturation
#: (growing queue wait at steady execute time) directly observable.
ENGINE_HISTOGRAM_PREFIXES = (
    "engine.queue_wait_seconds",
    "engine.execute_seconds",
)

#: Response classes the compile server tags its telemetry with:
#: ``ok`` (200), ``bad_request`` (400/413), ``shed`` (429),
#: ``not_found`` (404/405), ``error`` (500).
SERVE_OUTCOMES = ("ok", "bad_request", "shed", "not_found", "error")

#: Plain counters the compile server (:mod:`repro.serve.server`)
#: records into its own registry, exposed at ``GET /metrics``.
SERVE_COUNTERS = (
    "serve.requests",
    "serve.fast_path",
    "serve.compiled",
    "serve.coalesced",
    "serve.batches",
    "serve.parse_hits",
    "serve.parse_misses",
    "serve.region_hits",
    "serve.region_misses",
    "serve.shed.client",
    "serve.shed.queue",
    "serve.slow_clients",
)

#: Histograms the compile server records: ``serve.request_seconds.
#: <outcome>`` (end-to-end request latency per response class, the
#: source of the served p50/p99 quantiles), ``serve.batch_size``
#: (requests folded per engine wave), and ``serve.queue_depth``
#: (cold-queue depth sampled at each enqueue).
SERVE_HISTOGRAM_PREFIXES = ("serve.request_seconds",)


def _telemetry_names() -> Dict[str, str]:
    """Build the authoritative telemetry-name registry.

    Returns:
        Mapping of every counter/histogram name the engine, its
        compile server, and the cache emit into ``CompilationEngine.telemetry`` to a
        one-line description.  ``scripts/check_counter_names.py`` audits
        this registry bidirectionally against the source and
        ``docs/telemetry.md``.
    """
    names: Dict[str, str] = {}
    descriptions = {
        "resilience.rescues": "tasks finished inline after their worker was lost",
        "cache.hits": "schedule cache lookups answered from the cache",
        "cache.misses": "schedule cache lookups that fell through to compile",
        "cache.stores": "schedules written into the cache",
        "cache.evictions": "entries evicted to respect the capacity bound",
        "cache.corrupt": "cache files whose checksum or payload failed to load",
        "cache.quarantined": "corrupt cache files moved into quarantine/",
        "serve.requests": "HTTP requests accepted by the compile server",
        "serve.fast_path": "compile requests answered from the warm fast lane",
        "serve.compiled": "compile requests queued for an engine wave",
        "serve.coalesced": "duplicate in-flight requests folded onto one compile",
        "serve.batches": "engine waves dispatched by the batcher",
        "serve.parse_hits": "request bodies answered from the parse cache",
        "serve.parse_misses": "request bodies parsed and fingerprinted from scratch",
        "serve.region_hits": "regions of new bodies resolved from the region memo",
        "serve.region_misses": "regions of new bodies parsed and canonicalized afresh",
        "serve.shed.client": "requests shed with 429 by the per-client limit",
        "serve.shed.queue": "requests shed with 429 by the cold-queue bound",
        "serve.slow_clients": "connections dropped for dawdling past the read timeout",
        "serve.batch_size": "requests folded into each engine wave",
        "serve.queue_depth": "cold-queue depth sampled at each enqueue",
    }
    for name in RESILIENCE_COUNTERS + CACHE_COUNTERS + SERVE_COUNTERS:
        names[name] = descriptions[name]
    for prefix in ENGINE_HISTOGRAM_PREFIXES:
        stage = "submit-to-start queue wait" if "queue_wait" in prefix else "start-to-finish execute time"
        for status in ENGINE_TASK_STATUSES:
            names[f"{prefix}.{status}"] = (
                f"{stage} in seconds for tasks finishing with status {status}"
            )
    for outcome in SERVE_OUTCOMES:
        names[f"serve.responses.{outcome}"] = (
            f"HTTP responses sent with outcome {outcome}"
        )
    for prefix in SERVE_HISTOGRAM_PREFIXES:
        for outcome in SERVE_OUTCOMES:
            names[f"{prefix}.{outcome}"] = (
                f"end-to-end request latency in seconds for {outcome} responses"
            )
    for name in ("serve.batch_size", "serve.queue_depth"):
        names[name] = descriptions[name]
    return names


#: Authoritative name → description map for every telemetry counter and
#: histogram the engine, server and cache layers emit; audited by
#: ``scripts/check_counter_names.py`` against both the source code and
#: ``docs/telemetry.md``.
TELEMETRY_NAMES: Dict[str, str] = _telemetry_names()


def matrix_delta(
    before_weights: np.ndarray,
    matrix: "PreferenceMatrix",
) -> Dict[str, float]:
    """Measure what one pass did to the preference matrix.

    Preferred-cluster flips are not measured here: the convergence
    trace already counts them for the pass's ``changed_fraction``
    (:attr:`~repro.core.metrics.ConvergenceTrace.last_flips`).

    Args:
        before_weights: Checkpoint of the raw ``(N, C, T)`` weights
            taken before the pass (:meth:`PreferenceMatrix.checkpoint`).
        matrix: The matrix after the pass (and its normalize).

    Returns:
        Dict with keys:

        * ``l1_churn`` — mean absolute per-instruction weight movement
          (L1 distance between the old and new rows, averaged over
          instructions; 0 = the pass changed nothing, 2 = every
          instruction moved all its mass).
        * ``mean_entropy`` — current mean normalized spatial entropy
          (:meth:`PreferenceMatrix.mean_entropy`).
        * ``mean_confidence`` — current mean clamped confidence
          (:meth:`PreferenceMatrix.mean_confidence`).
    """
    n = matrix.n_instructions
    if n == 0:
        return {"l1_churn": 0.0, "mean_entropy": 0.0, "mean_confidence": 0.0}
    return {
        "l1_churn": float(np.abs(matrix.data - before_weights).sum()) / n,
        "mean_entropy": matrix.mean_entropy(),
        "mean_confidence": matrix.mean_confidence(cap=CONFIDENCE_CAP),
    }


#: Schema tag :meth:`QuantileHistogram.to_dict` stamps on its payload so
#: future layout changes can be detected on read.
QUANTILE_SCHEMA_VERSION = 1

#: Log-scale bucket resolution.  16 buckets per decade bounds the
#: relative quantile error at ``10 ** (1 / 32) - 1`` ≈ 7.5 % (each
#: reported quantile is the geometric midpoint of a bucket spanning a
#: ``10 ** (1 / 16)`` ratio).
QUANTILE_BUCKETS_PER_DECADE = 16

#: Smallest bucketed value; everything at or below lands in the
#: underflow bucket (index ``-1``) and reports as the observed minimum.
QUANTILE_FLOOR = 1e-7

#: Decades covered above the floor: 1e-7 .. 1e7 spans microsecond
#: timings through multi-month totals.
QUANTILE_DECADES = 14

#: Number of regular buckets; index ``QUANTILE_BUCKET_COUNT`` is the
#: overflow bucket and reports as the observed maximum.
QUANTILE_BUCKET_COUNT = QUANTILE_BUCKETS_PER_DECADE * QUANTILE_DECADES


def _bucket_index(value: float) -> int:
    """Map an observation to its fixed log-scale bucket index.

    Args:
        value: The observed value (any float).

    Returns:
        ``-1`` for the underflow bucket (value ≤ floor, including zero
        and negatives), ``QUANTILE_BUCKET_COUNT`` for overflow, else the
        regular bucket index in ``[0, QUANTILE_BUCKET_COUNT)``.
    """
    if not value > QUANTILE_FLOOR:
        return -1
    index = int(
        math.floor(
            math.log10(value / QUANTILE_FLOOR) * QUANTILE_BUCKETS_PER_DECADE
        )
    )
    return min(max(index, 0), QUANTILE_BUCKET_COUNT)


def _bucket_value(index: int) -> float:
    """Representative value (geometric midpoint) of a regular bucket.

    Args:
        index: Regular bucket index in ``[0, QUANTILE_BUCKET_COUNT)``.

    Returns:
        The geometric midpoint of the bucket's bounds.
    """
    return QUANTILE_FLOOR * 10.0 ** ((index + 0.5) / QUANTILE_BUCKETS_PER_DECADE)


@dataclass
class QuantileHistogram:
    """Streaming histogram: exact count/sum/min/max plus log-scale buckets.

    The bucket layout is fixed (``QUANTILE_FLOOR`` · 16 buckets/decade ·
    14 decades plus underflow/overflow), so merging two instances is an
    exact, associative element-wise add — fleet aggregation across
    workers loses nothing.  Reported quantiles carry a relative error of
    at most ``10 ** (1 / 32) - 1`` ≈ 7.5 % (geometric midpoint of a
    one-sixteenth-decade bucket), and are additionally clamped to the
    exact observed ``[min, max]``.

    An empty histogram holds ``min = max = 0.0``, so a live empty
    instance, a merged-from-empty instance, and a :meth:`to_dict` →
    :meth:`from_dict` round-trip of one are all equal.  A summary-only
    dict (no ``buckets``) loads with its count/sum/min/max and no
    buckets; quantiles count bucketed observations only and read the
    mean when there are none.
    """

    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0
    buckets: Dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        """Fold one observation into the summary and its bucket."""
        value = float(value)
        if self.count:
            self.min = min(self.min, value)
            self.max = max(self.max, value)
        else:
            self.min = value
            self.max = value
        self.count += 1
        self.total += value
        index = _bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations; 0 when empty."""
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "QuantileHistogram") -> None:
        """Fold another histogram in; its buckets add exactly."""
        if other.count:
            if self.count:
                self.min = min(self.min, other.min)
                self.max = max(self.max, other.max)
            else:
                self.min = other.min
                self.max = other.max
        self.count += other.count
        self.total += other.total
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile of the bucketed observations.

        Args:
            q: Quantile in ``[0, 1]``, e.g. ``0.99``.

        Returns:
            The bucket-midpoint estimate clamped to the exact observed
            ``[min, max]``; the mean when no observation is bucketed
            (empty, or loaded from a summary-only dict).
        """
        bucketed = sum(self.buckets.values())
        if not bucketed:
            return self.mean
        rank = max(0, min(bucketed - 1, math.ceil(q * bucketed) - 1))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen > rank:
                if index < 0:
                    return self.min
                if index >= QUANTILE_BUCKET_COUNT:
                    return self.max
                return min(max(_bucket_value(index), self.min), self.max)
        return self.max

    @property
    def p50(self) -> float:
        """Median estimate (see :meth:`quantile`)."""
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        """90th-percentile estimate (see :meth:`quantile`)."""
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        """99th-percentile estimate (see :meth:`quantile`)."""
        return self.quantile(0.99)

    def to_dict(self) -> Dict[str, float]:
        """JSON-safe dump: the summary keys plus the bucket layer."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "quantile_schema": QUANTILE_SCHEMA_VERSION,
            "buckets": {str(i): n for i, n in sorted(self.buckets.items())},
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "QuantileHistogram":
        """Inverse of :meth:`to_dict`; also loads summary-only dicts."""
        out = cls(count=int(data["count"]), total=float(data["total"]))
        if out.count:
            out.min = float(data["min"])
            out.max = float(data["max"])
        out.buckets = {
            int(i): int(n) for i, n in dict(data.get("buckets", {})).items()
        }
        return out


@dataclass
class MetricsRegistry:
    """Named counters and histograms for one run.

    Counters answer "how many" (regions scheduled, guard rollbacks);
    histograms answer "how much, typically" (compile seconds per
    region, cycles per region).  The registry is deliberately schema-
    free: any dotted name may be used, and :meth:`snapshot` produces
    the JSON-safe dict that rides on ``ProgramResult.metrics``.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    histograms: Dict[str, QuantileHistogram] = field(default_factory=dict)

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at 0).

        Args:
            name: Counter name, e.g. ``"regions.scheduled"``.
            amount: Increment, default 1.
        """
        self.counters[name] = self.counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name`` (creating it).

        Every engine/cache timing recorded through the
        registry carries p50/p90/p99 for free.

        Args:
            name: Histogram name, e.g. ``"region.compile_seconds"``.
            value: The observation to fold in.
        """
        self.histograms.setdefault(name, QuantileHistogram()).observe(value)

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        return self.counters.get(name, 0)

    def histogram(self, name: str) -> Optional[QuantileHistogram]:
        """Histogram ``name``, or ``None`` when nothing was observed."""
        return self.histograms.get(name)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (fleet aggregation)."""
        for name, value in other.counters.items():
            self.inc(name, value)
        for name, histogram in other.histograms.items():
            self.histograms.setdefault(name, QuantileHistogram()).merge(histogram)

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-safe dump: ``{"counters": {...}, "histograms": {...}}``."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: h.to_dict() for name, h in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_snapshot(cls, data: Dict[str, Dict]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output."""
        out = cls()
        out.counters = {k: int(v) for k, v in data.get("counters", {}).items()}
        out.histograms = {
            k: QuantileHistogram.from_dict(v)
            for k, v in data.get("histograms", {}).items()
        }
        return out

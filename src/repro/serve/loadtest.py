"""Load-test and soak harness for the compile service.

:func:`run_loadtest` drives a live :class:`~repro.serve.server.
CompileServer` with a seeded request mix over the benchmark suite, in
either of two classic load shapes:

* **closed loop** — N persistent-connection clients, each firing its
  next request the moment the previous response lands (throughput is
  latency-bound, the steady-state shape of a CI soak);
* **open loop** — requests arrive on a fixed-rate schedule regardless
  of completions (the shape that actually exercises backpressure:
  when the service falls behind, arrivals do not slow down).

The resulting :class:`LoadReport` carries latency quantiles
(p50/p90/p99), throughput, per-outcome response counts, the warm-cache
hit rate computed from response provenance, and a per-cell quality map
that is cross-checked two ways: internally (every response for one
(benchmark, machine, scheduler) cell must report identical cycles) and
against the latest committed ``BENCH_<n>.json`` snapshot
(:meth:`LoadReport.snapshot_mismatches`).  :meth:`LoadReport.gate`
turns thresholds into CI-ready violations, in the style of
``repro bench --compare``.

The HTTP client half (:func:`http_request` / :class:`HttpClient`) is
stdlib-asyncio only and shared with ``tests/test_serve.py``.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..machine import machine_from_spec
from ..observability.metrics import QuantileHistogram
from ..workloads.suite import (
    BASELINE_SCHEDULER,
    MACHINES,
    QUICK_SUITE,
    build_benchmark,
    schedulers_for_machine,
    suite_for_machine,
)
from .wire import compile_request

class HttpClient:
    """A persistent keep-alive connection to the compile server.

    One closed-loop load client owns one of these; it reconnects
    transparently if the server closes the connection (e.g. after a
    slow-client timeout).
    """

    def __init__(self, host: str, port: int, timeout_s: float = 30.0) -> None:
        """Remember the endpoint; the socket opens lazily.

        Args:
            host: Server address.
            port: Server port.
            timeout_s: Per-request timeout.
        """
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        """(Re)open the TCP connection."""
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, Dict[str, str], Dict[str, Any]]:
        """Issue one request on the persistent connection.

        Args:
            method: HTTP method.
            path: Request path.
            body: Optional JSON body bytes.

        Returns:
            ``(status, headers, decoded JSON payload)``.
        """
        if self._writer is None or self._writer.is_closing():
            await self._connect()
        assert self._reader is not None and self._writer is not None
        try:
            return await asyncio.wait_for(
                _roundtrip(self._reader, self._writer, method, path, body),
                timeout=self.timeout_s,
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            # Server closed the connection between requests: retry once
            # on a fresh socket.
            await self._connect()
            assert self._reader is not None and self._writer is not None
            return await asyncio.wait_for(
                _roundtrip(self._reader, self._writer, method, path, body),
                timeout=self.timeout_s,
            )

    async def close(self) -> None:
        """Close the connection if open."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
            self._writer = None
            self._reader = None


async def _roundtrip(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    body: Optional[bytes],
) -> Tuple[int, Dict[str, str], Dict[str, Any]]:
    """Write one request and read one response off an open connection.

    Args:
        reader: Connection reader.
        writer: Connection writer.
        method: HTTP method.
        path: Request path.
        body: Optional body bytes.

    Returns:
        ``(status, headers, decoded JSON payload)``.
    """
    payload = body or b""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {writer.get_extra_info('peername')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    head_blob = await reader.readuntil(b"\r\n\r\n")
    lines = head_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if ":" in line:
            key, value = line.split(":", 1)
            headers[key.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    blob = await reader.readexactly(length) if length else b"{}"
    return status, headers, json.loads(blob.decode("utf-8"))


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    timeout_s: float = 30.0,
) -> Tuple[int, Dict[str, str], Dict[str, Any]]:
    """One-shot request on a fresh connection (open-loop arrivals).

    Args:
        host: Server address.
        port: Server port.
        method: HTTP method.
        path: Request path.
        body: Optional JSON body bytes.
        timeout_s: Overall timeout.

    Returns:
        ``(status, headers, decoded JSON payload)``.
    """
    client = HttpClient(host, port, timeout_s)
    try:
        return await client.request(method, path, body)
    finally:
        await client.close()


@dataclass
class LoadtestConfig:
    """Shape of one load-test run.

    Attributes:
        host: Server address.
        port: Server port.
        clients: Concurrent clients (closed loop) or max in-flight
            arrivals (open loop).
        requests: Total measured requests.
        mode: ``"closed"`` or ``"open"``.
        rate: Open-loop arrival rate, requests/second.
        seed: Seed for the request mix (reproducible runs).
        machines: Machine specs in the mix.
        schedulers: Scheduler names in the mix; ``None`` picks each
            machine's paper line-up
            (:func:`~repro.workloads.suite.schedulers_for_machine`).
        benchmarks: Benchmark names in the mix (filtered per machine
            to its suite); ``None`` uses the quick tier
            (:data:`~repro.workloads.suite.QUICK_SUITE`).
        warm: Issue each unique request once, unmeasured, before the
            run — the measured phase then exercises the warm cache.
        timeout_s: Per-request client timeout.
    """

    host: str = "127.0.0.1"
    port: int = 8377
    clients: int = 4
    requests: int = 100
    mode: str = "closed"
    rate: float = 200.0
    seed: int = 0
    machines: Sequence[str] = MACHINES
    schedulers: Optional[Sequence[str]] = None
    benchmarks: Optional[Sequence[str]] = None
    warm: bool = True
    timeout_s: float = 30.0


@dataclass
class LoadReport:
    """Everything one load-test run measured.

    Attributes:
        requests: Measured requests issued.
        wall_s: Measured-phase wall time.
        latency: Response-latency histogram, seconds (p50/p90/p99).
        outcomes: Response counts by class: ``ok``, ``shed`` (429),
            ``client_error`` (other 4xx), ``server_error`` (5xx),
            ``transport_error`` (connection/timeout failures).
        served: ``ok`` response counts by provenance: ``cache``,
            ``compile``, ``coalesced``.
        cache_hits: Region cache hits summed over ok responses.
        cache_misses: Region cache misses summed over ok responses.
        quality: ``"benchmark/machine/scheduler"`` → cycles observed.
        inconsistencies: Human-readable reports of any cell that
            returned two different cycle counts (must stay empty).
    """

    requests: int = 0
    wall_s: float = 0.0
    latency: QuantileHistogram = field(default_factory=QuantileHistogram)
    outcomes: Dict[str, int] = field(default_factory=dict)
    served: Dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    quality: Dict[str, int] = field(default_factory=dict)
    inconsistencies: List[str] = field(default_factory=list)

    def record(self, cell: str, status: int, payload: Dict[str, Any],
               elapsed_s: float) -> None:
        """Fold one response into the report.

        Args:
            cell: ``"benchmark/machine/scheduler"`` of the request.
            status: HTTP status (0 for transport failures).
            payload: Decoded response body ({} for transport failures).
            elapsed_s: Client-observed latency.
        """
        self.requests += 1
        self.latency.observe(elapsed_s)
        if status == 200:
            outcome = "ok"
        elif status == 429:
            outcome = "shed"
        elif 400 <= status < 500:
            outcome = "client_error"
        elif status >= 500:
            outcome = "server_error"
        else:
            outcome = "transport_error"
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        if status != 200:
            return
        provenance = payload.get("served", "unknown")
        self.served[provenance] = self.served.get(provenance, 0) + 1
        cache = payload.get("cache", {})
        self.cache_hits += cache.get("hits", 0)
        self.cache_misses += cache.get("misses", 0)
        cycles = payload.get("result", {}).get("cycles")
        if cycles is None:
            return
        previous = self.quality.get(cell)
        if previous is None:
            self.quality[cell] = cycles
        elif previous != cycles:
            self.inconsistencies.append(
                f"{cell}: served {cycles} cycles, previously {previous}"
            )

    @property
    def hit_rate(self) -> float:
        """Warm-cache hit rate over served regions (1.0 when idle)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 1.0

    @property
    def throughput(self) -> float:
        """Measured requests per second."""
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-safe report document."""
        return {
            "kind": "load_report",
            "requests": self.requests,
            "wall_s": round(self.wall_s, 6),
            "throughput_rps": round(self.throughput, 3),
            "latency": self.latency.to_dict(),
            "outcomes": dict(self.outcomes),
            "served": dict(self.served),
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": round(self.hit_rate, 6),
            },
            "quality": dict(sorted(self.quality.items())),
            "inconsistencies": list(self.inconsistencies),
        }

    def render(self) -> str:
        """The human-readable report table."""
        ms = 1000.0
        lines = [
            f"requests      {self.requests}  "
            f"({self.throughput:.1f} req/s over {self.wall_s:.2f}s)",
            f"latency ms    p50={self.latency.p50 * ms:.2f}  "
            f"p90={self.latency.p90 * ms:.2f}  "
            f"p99={self.latency.p99 * ms:.2f}  "
            f"max={self.latency.max * ms:.2f}",
            "outcomes      "
            + "  ".join(f"{k}={v}" for k, v in sorted(self.outcomes.items())),
            "served        "
            + ("  ".join(f"{k}={v}" for k, v in sorted(self.served.items()))
               or "-"),
            f"cache         hits={self.cache_hits}  "
            f"misses={self.cache_misses}  hit_rate={self.hit_rate:.1%}",
            f"cells         {len(self.quality)} distinct, "
            f"{len(self.inconsistencies)} inconsistent",
        ]
        for report in self.inconsistencies:
            lines.append(f"  INCONSISTENT {report}")
        return "\n".join(lines)

    def gate(
        self,
        max_p99_ms: Optional[float] = None,
        min_hit_rate: Optional[float] = None,
        max_5xx: int = 0,
        max_error_rate: float = 0.0,
    ) -> List[str]:
        """Check CI thresholds; every violation becomes one line.

        Args:
            max_p99_ms: Fail if p99 latency exceeds this many ms.
            min_hit_rate: Fail if the warm hit rate is below this.
            max_5xx: Fail if more than this many 5xx responses landed.
            max_error_rate: Fail if (non-ok, non-shed) responses exceed
                this fraction of the total.

        Returns:
            Violation descriptions; empty means the gate passes.
        """
        violations = []
        p99_ms = self.latency.p99 * 1000.0
        if max_p99_ms is not None and p99_ms > max_p99_ms:
            violations.append(
                f"p99 latency {p99_ms:.2f}ms exceeds gate {max_p99_ms:g}ms"
            )
        if min_hit_rate is not None and self.hit_rate < min_hit_rate:
            violations.append(
                f"cache hit rate {self.hit_rate:.1%} below gate "
                f"{min_hit_rate:.1%}"
            )
        fives = self.outcomes.get("server_error", 0)
        if fives > max_5xx:
            violations.append(f"{fives} server errors exceed gate {max_5xx}")
        errors = (
            self.outcomes.get("client_error", 0)
            + self.outcomes.get("server_error", 0)
            + self.outcomes.get("transport_error", 0)
        )
        if self.requests and errors / self.requests > max_error_rate:
            violations.append(
                f"error rate {errors / self.requests:.1%} exceeds gate "
                f"{max_error_rate:.1%}"
            )
        violations.extend(
            f"quality inconsistency: {report}"
            for report in self.inconsistencies
        )
        return violations

    def snapshot_mismatches(self, snapshot_path: str) -> List[str]:
        """Cross-check served cycles against a ``BENCH_<n>.json``.

        Every cell this run served that the snapshot also measured must
        report identical cycles — the byte-identical-quality guarantee,
        checked end to end through the wire.  Cells of the
        :data:`~repro.workloads.suite.BASELINE_SCHEDULER` are skipped
        (the snapshot measures it on a different target machine).

        Args:
            snapshot_path: The committed snapshot to compare against.

        Returns:
            Mismatch descriptions; empty means quality matches.
        """
        with open(snapshot_path, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
        baseline = {
            f"{c['benchmark']}/{c['machine']}/{c['scheduler']}":
                c["quality"]["cycles"]
            for c in snapshot.get("cells", [])
        }
        mismatches = []
        for cell, cycles in sorted(self.quality.items()):
            if cell.rsplit("/", 1)[1] == BASELINE_SCHEDULER:
                continue
            expected = baseline.get(cell)
            if expected is not None and expected != cycles:
                mismatches.append(
                    f"{cell}: served {cycles} cycles, snapshot has {expected}"
                )
        return mismatches


def build_corpus(config: LoadtestConfig) -> List[Tuple[str, bytes]]:
    """Pre-serialize the request mix for a load run.

    Each corpus item is ``(cell, body)`` where ``cell`` is
    ``"benchmark/machine/scheduler"`` and ``body`` is the ready-to-send
    ``POST /compile`` JSON.  Benchmarks are filtered per machine to its
    suite, so every request in the mix is well-formed.

    Args:
        config: The run shape (machines, schedulers, benchmarks).

    Returns:
        The corpus, in deterministic order.
    """
    wanted = tuple(config.benchmarks or QUICK_SUITE)
    corpus = []
    for spec in config.machines:
        machine = machine_from_spec(spec)
        suite = suite_for_machine(machine)
        schedulers = config.schedulers or schedulers_for_machine(machine)
        names = [name for name in wanted if name in suite]
        for name in names:
            program = build_benchmark(name, machine)
            for scheduler in schedulers:
                body = json.dumps(
                    compile_request(program, spec, scheduler)
                ).encode()
                corpus.append((f"{name}/{spec}/{scheduler}", body))
    if not corpus:
        raise ValueError(
            "empty load corpus: no requested benchmark is in any "
            "requested machine's suite"
        )
    return corpus


async def _drive(
    config: LoadtestConfig, corpus: List[Tuple[str, bytes]]
) -> LoadReport:
    """Run the measured phase of a load test.

    Args:
        config: The run shape.
        corpus: Pre-serialized request mix from :func:`build_corpus`.

    Returns:
        The filled-in :class:`LoadReport`.
    """
    report = LoadReport()
    if config.warm:
        warm_client = HttpClient(config.host, config.port, config.timeout_s)
        try:
            for _cell, body in corpus:
                await warm_client.request("POST", "/compile", body)
        finally:
            await warm_client.close()
    mix = random.Random(config.seed)
    plan = [corpus[mix.randrange(len(corpus))] for _ in range(config.requests)]
    started = time.monotonic()
    if config.mode == "closed":
        await _closed_loop(config, plan, report)
    elif config.mode == "open":
        await _open_loop(config, plan, report)
    else:
        raise ValueError(f"unknown loadtest mode {config.mode!r}")
    report.wall_s = time.monotonic() - started
    return report


async def _closed_loop(
    config: LoadtestConfig,
    plan: List[Tuple[str, bytes]],
    report: LoadReport,
) -> None:
    """N persistent clients, each firing as soon as its response lands.

    Args:
        config: The run shape.
        plan: The seeded request sequence, split round-robin.
        report: Report to fold responses into.
    """

    async def client_loop(worker: int) -> None:
        client = HttpClient(config.host, config.port, config.timeout_s)
        try:
            for cell, body in plan[worker::config.clients]:
                begun = time.monotonic()
                try:
                    status, _headers, payload = await client.request(
                        "POST", "/compile", body
                    )
                except (OSError, asyncio.TimeoutError,
                        asyncio.IncompleteReadError):
                    status, payload = 0, {}
                report.record(cell, status, payload, time.monotonic() - begun)
        finally:
            await client.close()

    await asyncio.gather(
        *(client_loop(worker) for worker in range(config.clients))
    )


async def _open_loop(
    config: LoadtestConfig,
    plan: List[Tuple[str, bytes]],
    report: LoadReport,
) -> None:
    """Fixed-rate arrivals that do not wait for completions.

    Args:
        config: The run shape (``rate`` is arrivals/second).
        plan: The seeded request sequence.
        report: Report to fold responses into.
    """
    interval = 1.0 / config.rate if config.rate > 0 else 0.0

    async def one_arrival(cell: str, body: bytes) -> None:
        begun = time.monotonic()
        try:
            status, _headers, payload = await http_request(
                config.host, config.port, "POST", "/compile", body,
                timeout_s=config.timeout_s,
            )
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
            status, payload = 0, {}
        report.record(cell, status, payload, time.monotonic() - begun)

    pending = []
    for cell, body in plan:
        pending.append(asyncio.ensure_future(one_arrival(cell, body)))
        if interval:
            await asyncio.sleep(interval)
    await asyncio.gather(*pending)


def run_loadtest(config: LoadtestConfig) -> LoadReport:
    """Build the corpus and run one load test against a live server.

    Args:
        config: The run shape.

    Returns:
        The filled-in :class:`LoadReport`.
    """
    corpus = build_corpus(config)
    return asyncio.run(_drive(config, corpus))

"""The three benchmark workloads, driven through the public API.

* ``compile_cold`` — ``run_program`` at jobs=1, no cache: repro.core, the
  list scheduler and the simulator do nearly all the work.
* ``compile_warm`` — the same inputs through one reused
  ``CompilationEngine(jobs=1)`` whose in-memory ``ScheduleCache`` is
  filled during set-up, so every region hits: fingerprinting and cache
  replay do the work and repro.core does none.
* ``serve_mixed`` — an in-process ``ServerThread(ServeConfig(port=0,
  jobs=2))`` driven by one closed-loop keep-alive client (a build driver
  that waits for each reply) with a seeded mix of ``hit``, ``reuse`` and
  ``cold`` requests.

Each workload has a ``setup`` (timed as ``setup_s``), a ``run_round``
that compiles one round of inputs and returns what it saw, and a
``final_check`` run once after measuring.  Output checks run outside the
timed sections; a mismatch marks the operation failed.  Every latency is
scaled to the reference host speed of ``perfbench.speed`` by the probes
right before and after it, and a round's wall is the sum of its scaled
latencies.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import repro.harness.experiment as experiment
from repro import ConvergentScheduler
from repro.engine.cache import ScheduleCache
from repro.engine.pool import CACHE_HIT, CompilationEngine, RegionTask
from repro.ir.regions import Program
from repro.serve.loadtest import HttpClient
from repro.serve.server import ServeConfig, ServerThread
from repro.serve.wire import compile_request, program_from_dict

from .inputs import (
    Input,
    build_inputs,
    build_reference,
    checked_cycles,
    program_cycles,
    reference_cycles,
)
from .speed import SpeedMeter

#: Requests of each class in one ``serve_mixed`` round (a "build" of 80
#: compiles pushed through one client connection).  Every suite program
#: is compiled cold once a round, so rounds cost the same whatever the
#: seed.  Hits, the fastest class, and cold requests, the slowest, are a
#: fifth of the mix each, so that ``op_p50_ms`` sits at the middle of
#: the reuse class and ``op_p90_ms`` at the middle of the cold class,
#: where a percentile moves least, rather than on a class boundary.
SERVE_ROUND = {"hit": 16, "reuse": 48, "cold": 16}

#: Server worker processes.  One client drives them in a closed loop:
#: with the client's process, the server's threads and two workers all
#: on one core, a second client would time the OS scheduler instead.
SERVE_JOBS = 2

#: Cold requests sent during set-up to fork and warm the worker pool:
#: the first suite programs, the same whatever the seed, so that the
#: set-up costs the same.
POOL_WARMUPS = 4


@dataclass
class Op:
    """One timed operation: a program compile or an HTTP request."""

    kind: str
    latency_s: float
    failure: Optional[str] = None
    raw_s: float = 0.0


@dataclass
class RoundResult:
    """Everything one round measured and checked."""

    wall_s: float
    ops: List[Op]
    cycles: int
    outputs: Dict[str, int] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    raw_wall_s: float = 0.0


def _failed_program(result, ref_cycles: Dict[str, int], expected: int) -> Optional[str]:
    """Why a ``ProgramResult`` is wrong, or ``None`` when it is right."""
    if not result.ok:
        return f"{result.benchmark}: status {result.status}: {result.error}"
    for region in result.regions:
        if region.cycles != ref_cycles.get(region.region_name):
            return (
                f"{result.benchmark}/{region.region_name}: {region.cycles} cycles, "
                f"reference {ref_cycles.get(region.region_name)}"
            )
    if result.cycles != expected:
        return f"{result.benchmark}: {result.cycles} cycles, reference {expected}"
    return None


class CompileCold:
    """``run_program`` at jobs=1 with no cache, every input once a round."""

    name = "compile_cold"

    #: Latency percentiles are taken over the 18 inputs, each at its
    #: median over the run's rounds: every round compiles the same
    #: inputs, and one input's latency swings by 10-25% between rounds
    #: with the host's speed, far more than a whole round's does.
    pooled_latency = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # The benchmark seed is also the convergent NOISE seed, so seed 0
        # runs the published configuration that BENCH_4 recorded.
        self.noise = seed
        self.inputs: List[Input] = []

    def setup(self) -> None:
        """Build the programs."""
        self.inputs = build_inputs(self.seed)

    def prepare_reference(self) -> List[str]:
        """Compute reference cycles; returns the problems found."""
        self.reference = build_reference(self.inputs, self.noise)
        return list(self.reference.problems)

    def _compile(self, item: Input):
        return experiment.run_program(
            item.program, item.machine, ConvergentScheduler(seed=self.noise)
        )

    def run_round(self) -> RoundResult:
        """Compile every input once; check outputs after the clock stops."""
        results = []
        raws = []
        latencies = []
        meter = SpeedMeter()
        for item in self.inputs:
            begun = time.perf_counter()
            results.append(self._compile(item))
            raws.append(time.perf_counter() - begun)
            latencies.append(meter.scale(raws[-1]))
        ops = []
        outputs = {}
        for item, result, latency, raw in zip(self.inputs, results, latencies, raws):
            failure = _failed_program(
                result,
                self.reference.region_cycles[item.label],
                self.reference.cycles[item.label],
            )
            ops.append(Op("program", latency, failure, raw))
            outputs[item.label] = result.cycles
        return RoundResult(
            sum(latencies), ops, sum(outputs.values()), outputs, raw_wall_s=sum(raws)
        )

    def final_check(self) -> List[str]:
        """Nothing beyond the per-round checks: every output was checked."""
        return []

    def close(self) -> None:
        """Nothing to release."""


class CompileWarm(CompileCold):
    """The same inputs replayed from a warm in-memory ``ScheduleCache``."""

    name = "compile_warm"

    def setup(self) -> None:
        """Build the programs, then fill a fresh engine's cache."""
        super().setup()
        self.engine = CompilationEngine(jobs=1, cache=ScheduleCache())
        for item in self.inputs:
            self._compile(item)

    def _compile(self, item: Input):
        return experiment.run_program(
            item.program, item.machine, ConvergentScheduler(seed=self.noise),
            engine=self.engine,
        )

    def run_round(self) -> RoundResult:
        """One warm round; a region that misses the cache is a failure."""
        misses = self.engine.cache.stats.misses
        result = super().run_round()
        missed = self.engine.cache.stats.misses - misses
        if missed:
            result.ops[0].failure = result.ops[0].failure or f"{missed} regions missed the warm cache"
        return result

    def final_check(self) -> List[str]:
        """Verify every replayed schedule, not just its replayed cycles."""
        problems: List[str] = []
        for item in self.inputs:
            tasks = [
                RegionTask(
                    index=index,
                    region=region,
                    machine=item.machine,
                    scheduler=ConvergentScheduler(seed=self.noise),
                    capture_errors=True,
                )
                for index, region in enumerate(item.program.regions)
            ]
            for task, outcome in zip(tasks, self.engine.run_tasks(tasks)):
                label = f"{item.label}/{task.region.name}"
                if outcome.cache_status != CACHE_HIT or outcome.schedule is None:
                    problems.append(f"{label}: replay was not a cache hit")
                    continue
                cycles = checked_cycles(task.region, item.machine, outcome.schedule, problems)
                expected = self.reference.region_cycles[item.label][task.region.name]
                if cycles != expected:
                    problems.append(f"{label}: replayed schedule runs {cycles} cycles, reference {expected}")
        return problems

    def close(self) -> None:
        """Release the engine."""
        self.engine.close()


@dataclass
class Request:
    """One planned ``POST /compile``."""

    kind: str
    body: bytes
    spec: str
    regions: List[str]
    item: Optional[Input] = None
    seed: Optional[int] = None


class ServeMixed:
    """One closed-loop client against an in-process compile server."""

    name = "serve_mixed"

    #: Latency percentiles are taken over every request of the run: the
    #: class mix puts p50 at the middle of the reuse class and p90 at the
    #: middle of the cold class, where pooling many rounds is steadiest.
    pooled_latency = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.noise = seed
        self.thread: Optional[ServerThread] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.client: Optional[HttpClient] = None
        self.cold_seen: List[Tuple[Input, int, Dict[str, Any]]] = []
        self.class_latency: Dict[str, List[float]] = {k: [] for k in SERVE_ROUND}

    # -- set-up --------------------------------------------------------

    def setup(self) -> None:
        """Start the server, fill its cache, fork its pool, serve the corpus.

        The schedule cache of the server process is filled in process
        from the suite programs as the server decodes them: with a
        memory-only cache, regions the worker processes compile stay in
        the workers, so only regions the server process compiled itself
        can take the warm lane.  The programs are rebuilt from the request
        bodies because the wire turns integer immediates into floats,
        which changes the fingerprint of some regions (raw4x4 sha, life).
        """
        self.inputs = [item for item in build_inputs(self.seed) if item.suite]
        hit_pairs = self.start_stream()
        self.thread = ServerThread(ServeConfig(port=0, jobs=SERVE_JOBS)).start()
        self.hit_pool = [self._suite_request(item) for item in self.inputs]
        for item, request in zip(self.inputs, self.hit_pool):
            served = program_from_dict(json.loads(request.body)["program"])
            experiment.run_program(
                served, item.machine, ConvergentScheduler(seed=self.noise),
                cache=self.thread.server.cache,
            )
        self.loop = asyncio.new_event_loop()
        self.client = HttpClient(self.thread.host, self.thread.port)
        self.hit_pool += [self._combo_request("hit", *pair) for pair in hit_pairs]
        self.corpus_responses = self.loop.run_until_complete(self._serve(self.hit_pool))
        warmups = [
            self._cold_request(item, seed_range=(1 << 40, 1 << 41))
            for item in self.inputs[:POOL_WARMUPS]
        ]
        self.loop.run_until_complete(self._serve(warmups))

    def _body(self, program: Program, spec: str, seed: int) -> bytes:
        return json.dumps(
            compile_request(program, spec, "convergent", seed=seed, check_values=True)
        ).encode()

    def _suite_request(self, item: Input) -> Request:
        return Request(
            "hit", self._body(item.program, item.spec, self.noise), item.spec,
            [r.name for r in item.program.regions], item=item,
        )

    def _deal(self, deck: str, pool: list) -> Any:
        """The next card of a seeded deck over ``pool``, reshuffled when empty.

        Dealing instead of drawing spreads every input evenly over the
        run, so a round's cost does not depend on the seed's luck.
        """
        cards = self.decks.setdefault(deck, [])
        if not cards:
            cards.extend(self.rng.sample(pool, len(pool)))
        return cards.pop()

    def start_stream(self) -> List[Tuple[str, Tuple[Input, ...]]]:
        """Seed the request stream; returns the program pairs the hit pool joins.

        Each machine's suite programs are put in a seeded ring
        ``P[0..n-1]``.  The hit pool joins the neighbouring pairs
        ``(P[i], P[i+1])``.  A ``reuse`` program joins an ordered triple
        ``(P[i], P[i+a], P[i+b])`` (indices mod n): each pair of distinct
        steps ``a, b`` gives a block of ``n`` triples that uses every
        program three times, so rounds cost about the same whatever the
        seed.  The blocks cover each ordered triple of distinct programs
        once (504 on raw4x4, 210 on vliw4); they are dealt in a seeded
        order with the two machines spread evenly, then cycled.  A long
        run never runs out, and a triple comes back only after the 713
        others, some fifteen rounds later; a run of the usual length
        takes four or five rounds, so no triple repeats in it.
        """
        self.rng = random.Random(self.seed)
        self.used_seeds = {self.noise}
        self.decks: Dict[str, list] = {}
        pairs = []
        spread = []
        for spec in sorted({item.spec for item in self.inputs}):
            programs = [item for item in self.inputs if item.spec == spec]
            ring = self.rng.sample(programs, len(programs))
            n = len(ring)
            pairs += [(spec, (ring[i], ring[(i + 1) % n])) for i in range(n)]
            steps = [(a, b) for a in range(1, n) for b in range(1, n) if a != b]
            self.rng.shuffle(steps)
            spread += [
                ((k + 0.5) / len(steps), [
                    (spec, (ring[i], ring[(i + a) % n], ring[(i + b) % n])) for i in range(n)
                ])
                for k, (a, b) in enumerate(steps)
            ]
        spread.sort(key=lambda entry: entry[0])
        self.reuse_stream = itertools.cycle([combo for _, block in spread for combo in block])
        return pairs

    def _combo_request(self, kind: str, spec: str, picks: Tuple[Input, ...]) -> Request:
        """A program recombined from already-compiled suite regions."""
        regions = [region for item in picks for region in item.program.regions]
        program = Program(name="+".join(item.program.name for item in picks), regions=regions)
        return Request(
            kind, self._body(program, spec, self.noise), spec, [r.name for r in regions]
        )

    def _cold_request(
        self, item: Optional[Input] = None, seed_range: Tuple[int, int] = (1, 1 << 31)
    ) -> Request:
        """``item`` (by default the next of a seeded deck of suite programs)
        under a fresh convergent seed: must compile."""
        item = item or self._deal("cold", self.inputs)
        seed = self.rng.randrange(*seed_range)
        while seed in self.used_seeds:
            seed = self.rng.randrange(*seed_range)
        self.used_seeds.add(seed)
        return Request(
            "cold", self._body(item.program, item.spec, seed), item.spec,
            [r.name for r in item.program.regions], item=item, seed=seed,
        )

    def prepare_reference(self) -> List[str]:
        """Reference cycles, then check the corpus responses served in set-up."""
        self.reference = build_reference(self.inputs, self.noise)
        self.region_cycles: Dict[Tuple[str, str], int] = {}
        for item in self.inputs:
            for name, cycles in self.reference.region_cycles[item.label].items():
                self.region_cycles[(item.spec, name)] = cycles
        problems = list(self.reference.problems)
        for request, (status, payload, _raw, _scaled) in zip(self.hit_pool, self.corpus_responses):
            failure = self._check_warm(request, status, payload)
            if failure:
                problems.append(f"set-up corpus: {failure}")
        self.cycles_total = sum(
            payload.get("result", {}).get("cycles", 0)
            for request, (_s, payload, _r, _l) in zip(self.hit_pool, self.corpus_responses)
            if request.item is not None
        )
        return problems

    # -- measuring -----------------------------------------------------

    async def _serve(self, plan: List[Request]) -> List[Tuple[int, Dict[str, Any], float, float]]:
        """Send ``plan`` one request at a time, each after the last reply.

        Returns ``(status, payload, raw latency, scaled latency)`` per request.
        """
        replies = []
        meter = SpeedMeter()
        for request in plan:
            begun = time.perf_counter()
            try:
                status, _headers, payload = await self.client.request(
                    "POST", "/compile", request.body
                )
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError) as exc:
                status, payload = 0, {"error": repr(exc)}
            raw = time.perf_counter() - begun
            replies.append((status, payload, raw, meter.scale(raw)))
        return replies

    def _plan_round(self) -> List[Request]:
        plan = [self._deal("hit", self.hit_pool) for _ in range(SERVE_ROUND["hit"])]
        plan += [
            self._combo_request("reuse", *next(self.reuse_stream))
            for _ in range(SERVE_ROUND["reuse"])
        ]
        plan += [self._cold_request() for _ in range(SERVE_ROUND["cold"])]
        self.rng.shuffle(plan)
        return plan

    def run_round(self) -> RoundResult:
        """One build: a seeded round of requests through the client."""
        plan = self._plan_round()
        replies = self.loop.run_until_complete(self._serve(plan))
        ops = []
        for request, (status, payload, raw, latency) in zip(plan, replies):
            if request.kind == "cold":
                failure = self._check_cold(request, status, payload)
            else:
                failure = self._check_warm(request, status, payload)
            self.class_latency[request.kind].append(latency)
            ops.append(Op(request.kind, latency, failure, raw))
        return RoundResult(
            sum(op.latency_s for op in ops), ops, self.cycles_total,
            raw_wall_s=sum(op.raw_s for op in ops),
        )

    # -- checks --------------------------------------------------------

    @staticmethod
    def _check_status(status: int, payload: Dict[str, Any]) -> Optional[str]:
        if status != 200:
            return f"HTTP {status}: {payload.get('error')}"
        result = payload.get("result", {})
        if result.get("status") != "ok":
            return f"result status {result.get('status')}: {result.get('error')}"
        return None

    def _check_warm(self, request: Request, status: int, payload: Dict[str, Any]) -> Optional[str]:
        """A hit or reuse reply must match the reference region by region."""
        failure = self._check_status(status, payload)
        if failure:
            return failure
        if payload.get("served") == "compile":
            return f"{request.kind} request was compiled, not served warm"
        regions = payload["result"]["regions"]
        got = [region["cycles"] for region in regions]
        expected = [self.region_cycles[(request.spec, name)] for name in request.regions]
        if got != expected:
            return f"{request.spec}/{'+'.join(request.regions)}: cycles {got}, reference {expected}"
        return None

    def _check_cold(self, request: Request, status: int, payload: Dict[str, Any]) -> Optional[str]:
        """A cold reply must be compiled; its cycles are checked after measuring."""
        failure = self._check_status(status, payload)
        if failure:
            return failure
        if payload.get("served") != "compile":
            return f"cold request served as {payload.get('served')!r}"
        self.cold_seen.append((request.item, request.seed, payload))
        return None

    def final_check(self) -> List[str]:
        """Recompile every cold reply in process and compare, region by region."""
        problems: List[str] = []
        for item, seed, payload in self.cold_seen:
            expected = reference_cycles(item.program, item.machine, seed, problems)
            result = payload["result"]
            got = {region["name"]: region["cycles"] for region in result["regions"]}
            if got != expected or result["cycles"] != program_cycles(item.program, expected):
                problems.append(f"{item.label} seed {seed}: served {got}, recompiled {expected}")
        return problems

    def server_metrics(self) -> Dict[str, Any]:
        """The server's ``GET /metrics`` payload."""
        _status, _headers, payload = self.loop.run_until_complete(
            self.client.request("GET", "/metrics")
        )
        return payload

    def close(self) -> None:
        """Close the client, stop the server and join its worker pool."""
        if self.loop is not None:
            if self.client is not None:
                self.loop.run_until_complete(self.client.close())
                self.client = None
            self.loop.close()
            self.loop = None
        if self.thread is not None:
            self.thread.stop()
            self.thread = None


WORKLOADS = {cls.name: cls for cls in (CompileCold, CompileWarm, ServeMixed)}

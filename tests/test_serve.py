"""Live-server tests for compilation-as-a-service (:mod:`repro.serve`).

Four families, one per ISSUE satellite:

* **equivalence** — for every registered scheduler on both machine
  families, the served ``ProgramResult`` JSON is byte-identical
  (after scrubbing wall-clock fields) to a serial
  :func:`~repro.harness.experiment.run_program`, on both the cold
  and the warm path;
* **wire properties** — hypothesis round-trips over random DAG
  programs: serialization preserves the graph *including adjacency
  order* (schedulers tie-break on it), fingerprints survive the wire,
  and parsing is deterministic;
* **protocol robustness** — malformed bodies always produce a
  structured 400 (never a traceback), concurrent duplicates coalesce
  onto one compile;
* **backpressure & chaos** — queue-full and per-client 429s carry
  ``Retry-After``, dawdling clients are dropped, and a crashing
  primary scheduler degrades through a
  :class:`~repro.schedulers.fallback.FallbackChain` with zero lost
  requests (in-process and across a 2-worker pool).

Every test runs against a real socket via :class:`ServerThread`; the
HTTP side uses the loadtest helpers so the client code is exercised
too.
"""

from __future__ import annotations

import asyncio
import copy
import json
import socket
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings

import repro.engine.fingerprint as fp_mod
import repro.serve.server as server_mod
import repro.serve.wire as wire_mod
from repro.core.convergent import ConvergentScheduler
from repro.engine import schedule_key
from repro.engine.fingerprint import canonical_form, content_digest, ddg_fingerprint
from repro.faults.chaos import RaisingPass
from repro.harness.experiment import run_program
from repro.harness.results import program_result_to_dict
from repro.ir import Program, Region, RegionKind
from repro.machine import machine_from_spec
from repro.schedulers.fallback import FallbackChain
from repro.serve import (
    ServeConfig,
    ServerThread,
    WireError,
    compile_request,
    parse_request,
    program_from_dict,
    program_to_dict,
)
from repro.serve.server import REGION_MEMO_CAPACITY, SPEC_MEMO_CAPACITY, BoundedLRU
from repro.serve.wire import build_scheduler
from repro.serve.loadtest import http_request
from repro.verify.sweep import scheduler_registry
from repro.workloads import RAW_SUITE, VLIW_SUITE, build_benchmark

from tests.test_fingerprint_golden import GOLDEN_KEYS
from tests.test_properties_engine import build_region, dag_recipes

MACHINE_SPECS = ("raw4x4", "vliw4")
SCHEDULERS = tuple(sorted(scheduler_registry()))


# -- helpers -----------------------------------------------------------


def _call(thread, method, path, body=None, timeout_s=60.0):
    """One HTTP round-trip against a :class:`ServerThread`."""
    return asyncio.run(
        http_request(thread.host, thread.port, method, path, body, timeout_s)
    )


def _post(thread, body):
    """POST ``body`` to ``/compile``; returns ``(status, headers, payload)``."""
    return _call(thread, "POST", "/compile", body)


def _metrics(thread):
    """The decoded ``GET /metrics`` payload."""
    status, _, payload = _call(thread, "GET", "/metrics")
    assert status == 200
    return payload


def _counters(thread):
    """The server's ``serve.*`` counter map from ``GET /metrics``."""
    return _metrics(thread)["serve"]["counters"]


def _body(program, spec, scheduler, **kwargs):
    """Encoded wire body for one compile request."""
    return json.dumps(compile_request(program, spec, scheduler, **kwargs)).encode()


def _scrub(result_dict):
    """Drop wall-clock fields so serial and served results compare."""
    out = copy.deepcopy(result_dict)
    out["compile_seconds"] = 0.0
    out["metrics"] = None
    for region in out["regions"]:
        region["compile_seconds"] = 0.0
    return out


def _canon(result_dict):
    """Canonical bytes of a scrubbed result, for byte-identity checks."""
    return json.dumps(_scrub(result_dict), sort_keys=True).encode()


@pytest.fixture(scope="module")
def server():
    """One shared default-config server for the read-mostly tests."""
    with ServerThread() as thread:
        yield thread


# -- satellite 1: serial/served equivalence ----------------------------


class TestEquivalence:
    """Served results are byte-identical to serial ``run_program``."""

    @pytest.mark.parametrize("spec", MACHINE_SPECS)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_cold_and_warm_match_serial(self, server, spec, scheduler):
        program = build_benchmark("vvmul")
        machine = machine_from_spec(spec)
        serial = run_program(
            program, machine, scheduler_registry()[scheduler](),
            check_values=False,
        )
        body = _body(program, spec, scheduler)
        cold_status, _, cold = _post(server, body)
        warm_status, _, warm = _post(server, body)
        assert cold_status == 200 and warm_status == 200
        expected = _canon(program_result_to_dict(serial))
        assert _canon(cold["result"]) == expected
        assert _canon(warm["result"]) == expected
        if serial.status == "ok":
            # Failed results are deliberately never cached, so only OK
            # cells are guaranteed to come back from the warm path.
            assert warm["served"] == "cache"

    def test_warm_lane_serves_from_schedule_cache(self, server):
        """With the response cache cleared, the warm lane rebuilds the
        identical payload from :class:`ScheduleCache` hits."""
        program = build_benchmark("fir")
        body = _body(program, "vliw4", "convergent", seed=9)
        status, _, cold = _post(server, body)
        assert status == 200
        srv = server.server
        srv._response_cache.clear()
        hits_before = srv.cache.stats.hits
        status, _, warm = _post(server, body)
        assert status == 200
        assert warm["served"] == "cache"
        assert srv.cache.stats.hits > hits_before
        assert _canon(warm["result"]) == _canon(cold["result"])

    def test_warm_lane_agrees_with_engine_cache_hits(self, monkeypatch):
        """The warm lane replays a hit exactly as the engine does: same
        region result (bar ``compile_seconds``) and the same ledger row
        (bar timing, worker and index), region for region, over both
        suites."""
        warm_outcomes = []
        execute_task = server_mod.execute_task

        def recording_execute_task(*args):
            warm_outcomes.append(execute_task(*args))
            return warm_outcomes[-1]

        monkeypatch.setattr(server_mod, "execute_task", recording_execute_task)
        registry = scheduler_registry()
        volatile = {"index", "worker", "submit_s", "start_s", "finish_s",
                    "queue_wait_s", "execute_s"}

        def rows(records):
            return [
                {k: v for k, v in r.to_dict().items() if k not in volatile}
                for r in records
            ]

        def result(outcome):
            return dict(vars(outcome.result), compile_seconds=0.0)

        with ServerThread() as thread:
            srv = thread.server
            for spec, suite in (("raw4x4", RAW_SUITE), ("vliw4", VLIW_SUITE)):
                machine = machine_from_spec(spec)
                for benchmark in suite:
                    program = build_benchmark(benchmark, machine)
                    parsed = parse_request(
                        compile_request(program, spec, "convergent"), registry
                    )
                    srv.engine.run_tasks(srv._build_tasks(parsed))  # fill
                    n = len(program.regions)
                    engine_hits = srv.engine.run_tasks(srv._build_tasks(parsed))
                    engine_rows = rows(srv.ledger.records[-n:])
                    warm_outcomes.clear()
                    srv._serve_warm(parsed)
                    assert [o.cache_status for o in engine_hits] == ["hit"] * n
                    assert [o.cache_status for o in warm_outcomes] == ["hit"] * n
                    assert [result(o) for o in warm_outcomes] == [
                        result(o) for o in engine_hits
                    ]
                    assert rows(srv.ledger.records[-n:]) == engine_rows

    def test_every_served_task_emits_flight_records(self, server):
        payload = _metrics(server)
        result = _post(server, _body(build_benchmark("mxm"), "vliw4", "uas"))
        assert result[0] == 200
        after = _metrics(server)
        grew = after["ledger_records"] - payload["ledger_records"]
        assert grew >= len(build_benchmark("mxm").regions)


class TestTimelineOnServerLedger:
    """A flushed server ledger replays through ``repro timeline``."""

    def test_timeline_reads_flushed_ledger(self, tmp_path, capsys):
        from repro.cli import main

        ledger_path = tmp_path / "serve_flight.jsonl"
        config = ServeConfig(port=0, ledger_path=str(ledger_path))
        with ServerThread(config) as thread:
            status, _, _ = _post(
                thread, _body(build_benchmark("vvmul"), "vliw4", "convergent")
            )
            assert status == 200
        assert ledger_path.exists()
        assert main(["timeline", str(ledger_path)]) == 0
        assert "worker" in capsys.readouterr().out


# -- satellite 2: wire-schema properties -------------------------------


class TestWireProperties:
    """Hypothesis round-trips over random DAG programs."""

    @given(dag_recipes(max_nodes=16))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_preserves_graph_and_adjacency_order(self, nodes):
        region = build_region(nodes, name="wire")
        program = Program("wire_prog", regions=[region])
        data = program_to_dict(program)
        back = program_from_dict(data)
        ddg, ddg2 = region.ddg, back.regions[0].ddg
        assert len(ddg) == len(ddg2)
        for uid in range(len(ddg)):
            a, b = ddg.instruction(uid), ddg2.instruction(uid)
            assert (a.opcode, tuple(a.operands)) == (b.opcode, tuple(b.operands))
            for pick in ("successors", "predecessors"):
                ours = [(e.src, e.dst, e.latency, e.kind)
                        for e in getattr(ddg, pick)(uid)]
                theirs = [(e.src, e.dst, e.latency, e.kind)
                          for e in getattr(ddg2, pick)(uid)]
                assert ours == theirs, f"{pick} order diverged at uid {uid}"
        assert json.dumps(data, sort_keys=True) == json.dumps(
            program_to_dict(back), sort_keys=True
        )

    @given(dag_recipes(max_nodes=12))
    @settings(max_examples=10, deadline=None)
    def test_fingerprint_stable_across_serialization(self, nodes):
        region = build_region(nodes, name="wirefp")
        machine = machine_from_spec("vliw4")
        back = program_from_dict(
            program_to_dict(Program("p", regions=[region]))
        ).regions[0]
        original = schedule_key(
            region, machine, ConvergentScheduler(), check_values=False
        )
        roundtrip = schedule_key(
            back, machine, ConvergentScheduler(), check_values=False
        )
        assert original.key == roundtrip.key

    def test_graph_travels_as_columns(self):
        """Schema 2: one list per instruction column and per edge column,
        edges in the emission order that rebuilds adjacency."""
        region = build_benchmark("fir").regions[0]
        data = wire_mod.region_to_dict(region)
        ddg = region.ddg
        n = len(ddg)
        assert compile_request(Program("p", [region]), "vliw4", "pcc")["schema"] == 2
        assert tuple(data["instructions"]) == wire_mod.INSTRUCTION_COLUMNS
        assert all(len(col) == n for col in data["instructions"].values())
        assert tuple(data["edges"]) == wire_mod.EDGE_COLUMNS
        edges = wire_mod._edge_emission_order(ddg)
        assert list(zip(*data["edges"].values())) == [
            (e.src, e.dst, e.latency, e.kind) for e in edges
        ]

    def test_canonical_memo_key_survives_the_wire(self):
        """Every suite region keeps its canonical memo key across the wire:
        decoded edge kinds are the literals an in-process build holds, so
        pickle writes the same bytes for both."""
        for spec, suite in (("raw4x4", RAW_SUITE), ("vliw4", VLIW_SUITE)):
            machine = machine_from_spec(spec)
            for name in suite:
                program = build_benchmark(name, machine)
                back = program_from_dict(
                    json.loads(json.dumps(program_to_dict(program)))
                )
                for region, wired in zip(program.regions, back.regions):
                    assert fp_mod._canonical_key(wired.ddg) == fp_mod._canonical_key(
                        region.ddg
                    ), f"{spec}/{name}"

    def test_integer_and_float_immediates_keep_their_type(self):
        region = build_benchmark("vvmul").regions[0]
        data = json.loads(json.dumps(wire_mod.region_to_dict(region)))
        for value in (2, 2.0):
            data["instructions"]["immediate"][0] = value
            back = wire_mod.region_from_dict(data)
            assert type(back.ddg.instruction(0).immediate) is type(value)

    def test_every_region_kind_round_trips(self):
        """The wire accepts all five kind strings, whatever formed the region."""
        ddg = build_benchmark("vvmul").regions[0].ddg
        program = Program(
            "kinds",
            regions=[Region(f"r_{kind.value}", ddg, kind=kind) for kind in RegionKind],
        )
        data = json.loads(json.dumps(program_to_dict(program)))
        assert [r["kind"] for r in data["regions"]] == [k.value for k in RegionKind]
        back = program_from_dict(data)
        assert [r.kind for r in back.regions] == list(RegionKind)

    @pytest.mark.parametrize("spec,suite", [("raw4x4", RAW_SUITE), ("vliw4", VLIW_SUITE)])
    def test_suite_fingerprints_survive_json_round_trip(self, spec, suite):
        """Integer immediates stay integers, so no region's DDG digest moves."""
        machine = machine_from_spec(spec)
        for name in suite:
            program = build_benchmark(name, machine)
            back = program_from_dict(json.loads(json.dumps(program_to_dict(program))))
            assert [ddg_fingerprint(r.ddg) for r in back.regions] == [
                ddg_fingerprint(r.ddg) for r in program.regions
            ], f"{spec}/{name}"

    @given(dag_recipes(max_nodes=12))
    @settings(max_examples=10, deadline=None)
    def test_request_parse_is_deterministic(self, nodes):
        region = build_region(nodes, name="wirereq")
        program = Program("p", regions=[region])
        registry = scheduler_registry()
        request = compile_request(program, "raw4x4", "convergent", seed=3)
        rehydrated = json.loads(json.dumps(request))
        first = parse_request(rehydrated, registry)
        second = parse_request(json.loads(json.dumps(rehydrated)), registry)
        assert first.key == second.key
        assert first.scheduler_name == "convergent"
        assert first.seed == 3


def _v1_body(body):
    """``body`` (a decoded wire body) rewritten row by row: one object per
    instruction and one ``[src, dst, latency, kind]`` list per edge, the
    shape of wire schema 1."""
    rows = copy.deepcopy(body)
    for region in rows["program"]["regions"]:
        columns = region["instructions"]
        region["instructions"] = [
            dict(zip(columns, row)) for row in zip(*columns.values())
        ]
        region["edges"] = [list(edge) for edge in zip(*region["edges"].values())]
    return rows


def _dangle(region):
    """Append an edge to uid 10000, past every region's last uid."""
    for column, value in zip(("src", "dst", "latency", "kind"),
                             (0, 10_000, 1, "data")):
        region["edges"][column].append(value)


def _mutations():
    """Named malformed-request bodies, each with the ``field`` its
    structured 400 must name."""
    base = compile_request(build_benchmark("vvmul"), "vliw4", "convergent")
    region = "request.program.regions[0]"
    instructions = base["program"]["regions"][0]["instructions"]
    n = len(instructions["opcode"])
    m = len(base["program"]["regions"][0]["edges"]["src"])
    reader = next(uid for uid, uids in enumerate(instructions["operands"]) if uids)

    def mutate(**changes):
        bad = json.loads(json.dumps(base))
        bad.update(changes)
        return bad

    def region_mutated(change):
        bad = json.loads(json.dumps(base))
        change(bad["program"]["regions"][0])
        return bad

    v1 = _v1_body(base)
    v1["schema"] = 1
    cases = {
        "wrong-kind": (mutate(kind="frobnicate"), "request.kind"),
        "wrong-schema": (mutate(schema=99), "request.schema"),
        "v1-row-body": (v1, "request.schema"),
        "v1-rows-under-v2": (_v1_body(base), f"{region}.instructions"),
        "unknown-scheduler": (mutate(scheduler="doom"), "request.scheduler"),
        "unknown-machine": (mutate(machine="cray1"), "request.machine"),
        "program-not-dict": (mutate(program=[1, 2]), "request.program"),
        "bool-seed": (mutate(seed=True), "request.seed"),
        "bad-opcode": (
            region_mutated(lambda r: r["instructions"]["opcode"].__setitem__(0, "zorp")),
            f"{region}.instructions.opcode[0]",
        ),
        "dangling-edge": (region_mutated(_dangle), f"{region}.edges.dst[{m}]"),
        "negative-trip-count": (
            region_mutated(lambda r: r.__setitem__("trip_count", -4)),
            f"{region}.trip_count",
        ),
        "column-length-mismatch": (
            region_mutated(lambda r: r["instructions"]["name"].pop()),
            f"{region}.instructions.name[{n - 1}]",
        ),
        "missing-opcode-column": (
            region_mutated(lambda r: r["instructions"].pop("opcode")),
            f"{region}.instructions.opcode",
        ),
        "column-not-a-list": (
            region_mutated(lambda r: r["instructions"].__setitem__("bank", 5)),
            f"{region}.instructions.bank",
        ),
        "bool-operand": (
            region_mutated(
                lambda r: r["instructions"]["operands"][reader].__setitem__(0, True)
            ),
            f"{region}.instructions.operands[{reader}][0]",
        ),
        "ragged-edge-columns": (
            region_mutated(lambda r: r["edges"]["latency"].pop()),
            f"{region}.edges.latency[{m - 1}]",
        ),
        "unknown-edge-kind": (
            region_mutated(lambda r: r["edges"]["kind"].__setitem__(0, "ghost")),
            f"{region}.edges.kind[0]",
        ),
    }
    mutations = {name: (json.dumps(doc).encode(), field)
                 for name, (doc, field) in cases.items()}
    mutations["not-json"] = (b"{nope", "body")
    return mutations


class TestProtocolRobustness:
    """Malformed input is rejected in-band; duplicates coalesce."""

    @pytest.mark.parametrize("case", sorted(_mutations()))
    def test_malformed_request_gets_structured_400(self, server, case):
        body, field = _mutations()[case]
        status, _, payload = _post(server, body)
        assert status == 400, case
        assert payload["kind"] == "error"
        error = payload["error"]
        assert error["type"] == "bad_request"
        assert error["field"] == field
        assert "message" in error
        assert "Traceback" not in error["message"]

    @pytest.mark.parametrize("length", ["twelve", "-5"])
    def test_malformed_content_length_gets_structured_400(self, server, length):
        head = f"POST /compile HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
        with socket.create_connection((server.host, server.port), timeout=10) as conn:
            conn.sendall(head.encode())
            reply = b""
            while chunk := conn.recv(65536):
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line == b"HTTP/1.1 400 Bad Request"
        payload = json.loads(rest.partition(b"\r\n\r\n")[2])
        assert payload["kind"] == "error"
        assert payload["error"]["type"] == "bad_request"
        assert payload["error"]["field"] == "http"

    def test_unknown_path_and_method(self, server):
        assert _call(server, "GET", "/frobnicate")[0] == 404
        assert _call(server, "GET", "/compile")[0] == 405
        assert _call(server, "GET", "/healthz")[0] == 200

    def test_concurrent_duplicates_coalesce_to_one_compile(self):
        """Six identical cold requests → one engine compile, six 200s."""
        with ServerThread() as thread:
            body = _body(build_benchmark("vvmul"), "raw4x4", "pcc")

            async def storm(n=6):
                calls = [
                    http_request(thread.host, thread.port, "POST",
                                 "/compile", body, 60.0)
                    for _ in range(n)
                ]
                return await asyncio.gather(*calls)

            replies = asyncio.run(storm())
            assert [status for status, _, _ in replies] == [200] * 6
            results = {_canon(payload["result"]) for _, _, payload in replies}
            assert len(results) == 1
            snap = _counters(thread)
            assert snap["serve.compiled"] == 1
            assert snap["serve.coalesced"] >= 1
            assert snap["serve.responses.ok"] == 6


# -- satellite 3: backpressure & chaos ---------------------------------


class TestBackpressure:
    """Overload sheds with 429 + Retry-After; dawdlers are dropped."""

    def test_queue_full_sheds_with_retry_after(self):
        config = ServeConfig(port=0, queue_limit=0, retry_after_s=2.5)
        with ServerThread(config) as thread:
            body = _body(build_benchmark("vvmul"), "vliw4", "convergent")
            status, headers, payload = _post(thread, body)
            assert status == 429
            assert headers.get("retry-after") == "2.5"
            assert payload["error"]["type"] == "shed"
            snap = _counters(thread)
            assert snap["serve.shed.queue"] == 1
            assert snap["serve.responses.shed"] == 1

    def test_per_client_limit_sheds(self):
        config = ServeConfig(port=0, client_limit=0)
        with ServerThread(config) as thread:
            body = _body(build_benchmark("vvmul"), "vliw4", "convergent")
            status, headers, payload = _post(thread, body)
            assert status == 429
            assert "retry-after" in headers
            assert payload["error"]["type"] == "shed"
            assert _counters(thread)["serve.shed.client"] == 1

    def test_slow_client_is_dropped(self):
        config = ServeConfig(port=0, read_timeout_s=0.25)
        with ServerThread(config) as thread:
            conn = socket.create_connection((thread.host, thread.port))
            try:
                conn.sendall(b"POST /compile HTTP/1.1\r\n")  # never finishes
                conn.settimeout(5.0)
                assert conn.recv(1024) == b""  # server hung up on us
            finally:
                conn.close()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if _counters(thread).get("serve.slow_clients", 0):
                    break
                time.sleep(0.05)
            assert _counters(thread)["serve.slow_clients"] >= 1


class TestCliHardening:
    """`serve`/`loadtest` ride the hardened exit-code decorator."""

    def test_loadtest_config_error_exits_2(self, capsys):
        from repro.cli import main

        code = main(["loadtest", "--requests", "2",
                     "--benchmarks", "doom", "--no-warm"])
        assert code == 2
        assert "empty load corpus" in capsys.readouterr().err

    def test_loadtest_missing_snapshot_exits_2(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        code = main(["loadtest", "--spawn", "--requests", "2",
                     "--clients", "1", "--benchmarks", "vvmul",
                     "--machines", "vliw4", "--against-latest"])
        assert code == 2

    def test_loadtest_gate_violation_exits_1(self, capsys):
        from repro.cli import main

        code = main(["loadtest", "--spawn", "--requests", "8",
                     "--clients", "2", "--benchmarks", "vvmul",
                     "--machines", "vliw4", "--gate-p99-ms", "0.000001"])
        assert code == 1
        assert "GATE VIOLATION" in capsys.readouterr().out


def _chaotic_registry():
    """A registry whose only scheduler crashes its primary mid-pass.

    The primary is a convergent scheduler carrying an unguarded
    :class:`RaisingPass` (so the injected fault escapes); the fallback
    is a stock convergent scheduler, so a degraded request still
    produces the exact cycles a healthy convergent compile would.
    """
    return {
        "chaotic": lambda: FallbackChain(
            [
                ConvergentScheduler(
                    passes=["INITTIME", RaisingPass(), "LOAD"], guard=False
                ),
                ConvergentScheduler(),
            ],
        )
    }


class TestChaos:
    """A crashing primary degrades through the chain; nothing is lost."""

    BENCHMARKS = ("vvmul", "fir", "mxm")

    @staticmethod
    def _nameless(result_dict):
        """Scrubbed canonical bytes minus the scheduler label — the
        chain reports its own name, the wire reports the registry key,
        but the schedules themselves must be identical."""
        scrubbed = _scrub(result_dict)
        scrubbed.pop("scheduler")
        return json.dumps(scrubbed, sort_keys=True).encode()

    def _expected(self, name):
        return self._nameless(program_result_to_dict(run_program(
            build_benchmark(name), machine_from_spec("vliw4"),
            ConvergentScheduler(), check_values=False,
        )))

    def test_crashing_primary_degrades_with_zero_lost_requests(self):
        with ServerThread(registry=_chaotic_registry()) as thread:
            for name in self.BENCHMARKS:
                status, _, payload = _post(
                    thread, _body(build_benchmark(name), "vliw4", "chaotic")
                )
                assert status == 200, name
                assert payload["result"]["status"] == "ok"
                assert self._nameless(payload["result"]) == self._expected(name)
            snap = _counters(thread)
            assert snap["serve.responses.ok"] == len(self.BENCHMARKS)
            assert snap.get("serve.responses.error", 0) == 0

    def test_pool_workers_degrade_with_zero_lost_requests(self):
        """Same chaos across a 2-worker pool: the fault crashes inside
        pool workers and every request still compiles."""
        config = ServeConfig(port=0, jobs=2)
        with ServerThread(config, registry=_chaotic_registry()) as thread:
            for name in self.BENCHMARKS[:2]:
                status, _, payload = _post(
                    thread, _body(build_benchmark(name), "vliw4", "chaotic")
                )
                assert status == 200, name
                assert payload["result"]["status"] == "ok"
                assert self._nameless(payload["result"]) == self._expected(name)
            snap = _counters(thread)
            assert snap["serve.responses.ok"] == 2
            assert snap.get("serve.responses.error", 0) == 0


# -- the region memo ---------------------------------------------------


def _suite(spec):
    """``(name, program)`` for every suite program of one machine."""
    machine = machine_from_spec(spec)
    suite = RAW_SUITE if spec == "raw4x4" else VLIW_SUITE
    return [(name, build_benchmark(name, machine)) for name in suite]


def _joined(programs):
    """One program carrying the regions of ``programs``, in order."""
    return Program(
        "+".join(p.name for p in programs),
        regions=[region for p in programs for region in p.regions],
    )


def _decoded(program, spec, **kwargs):
    """A request document as the server sees it, after ``json.loads``."""
    return json.loads(_body(program, spec, "convergent", check_values=True, **kwargs))


def _keys(parsed):
    """The per-region keys of a parsed request."""
    return [fp.key for fp in parsed.fingerprints]


def _unmemoized_keys(data):
    """Keys of a fresh, memo-free parse: ``schedule_key`` on each region."""
    program = program_from_dict(data["program"])
    machine = machine_from_spec(data["machine"])
    scheduler = build_scheduler(
        data["scheduler"], scheduler_registry(), data.get("seed")
    )
    return [
        schedule_key(region, machine, scheduler,
                     check_values=data["check_values"], verify=data["verify"]).key
        for region in program.regions
    ]


class TestRegionMemo:
    """Regions resolved through the memo key exactly as fresh parses do."""

    REGISTRY = scheduler_registry()

    def test_keys_match_unmemoized_and_golden_keys(self):
        golden = {(spec, name): key for spec, name, key, _ in GOLDEN_KEYS}
        memo = BoundedLRU(REGION_MEMO_CAPACITY)
        for spec in MACHINE_SPECS:
            suite = _suite(spec)
            for name, program in suite:
                data = _decoded(program, spec)
                parsed = parse_request(data, self.REGISTRY, memo)
                assert parsed.region_hits + parsed.region_misses == 1
                assert _keys(parsed) == _unmemoized_keys(data), f"{spec}/{name}"
                assert _keys(parsed) == [golden[(spec, name)]], f"{spec}/{name}"
            n = len(suite)
            for i in range(n):
                picks = [suite[i], suite[(i + 1) % n], suite[(i + 3) % n]]
                data = _decoded(_joined([p for _, p in picks]), spec)
                parsed = parse_request(data, self.REGISTRY, memo)
                assert (parsed.region_hits, parsed.region_misses) == (3, 0)
                assert _keys(parsed) == _unmemoized_keys(data)
                assert _keys(parsed) == [golden[(spec, name)] for name, _ in picks]

    @pytest.mark.parametrize("change", ["immediate", "latency", "name"])
    def test_one_changed_region_misses_alone(self, change):
        suite = dict(_suite("raw4x4"))
        base = _decoded(
            _joined([suite["cholesky"], suite["sha"], suite["mxm"]]), "raw4x4"
        )
        target = base["program"]["regions"][1]
        slot = next(
            i for i, immediate in enumerate(target["instructions"]["immediate"])
            if isinstance(immediate, int)
        )
        target["instructions"]["immediate"][slot] = 2
        memo = BoundedLRU(REGION_MEMO_CAPACITY)
        before = _keys(parse_request(base, self.REGISTRY, memo))
        changed = copy.deepcopy(base)
        region = changed["program"]["regions"][1]
        if change == "immediate":
            region["instructions"]["immediate"][slot] = 2.0
        elif change == "latency":
            region["edges"]["latency"][0] += 1
        else:
            region["name"] += "'"
        parsed = parse_request(changed, self.REGISTRY, memo)
        assert (parsed.region_hits, parsed.region_misses) == (2, 1)
        assert _keys(parsed) == _unmemoized_keys(changed)
        after = _keys(parsed)
        assert after[1] != before[1]
        assert (after[0], after[2]) == (before[0], before[2])

    def test_region_memo_shares_canonical_memo_forms(self):
        """The memo is keyed by each decoded document's content digest and
        holds the canonical memo's own forms, not copies."""
        data = _decoded(_joined([p for _, p in _suite("vliw4")[:2]]), "vliw4")
        memo = BoundedLRU(REGION_MEMO_CAPACITY)
        parse_request(data, self.REGISTRY, memo)
        assert len(memo) == 2
        for region_data in data["program"]["regions"]:
            form = memo.get(content_digest(region_data))
            assert form is not None
            assert form.canonical is canonical_form(form.region.ddg)

    def test_shape_limits_hold_when_every_region_hits(self, monkeypatch):
        program = _joined([p for _, p in _suite("vliw4")[:3]])
        data = _decoded(program, "vliw4")
        memo = BoundedLRU(REGION_MEMO_CAPACITY)
        parse_request(data, self.REGISTRY, memo)

        def unreachable(*args):
            raise AssertionError("every region should come from the memo")

        monkeypatch.setattr(wire_mod, "region_from_dict", unreachable)
        total = program.total_instructions()
        monkeypatch.setattr(wire_mod, "MAX_INSTRUCTIONS", total - 1)
        with pytest.raises(WireError, match="too many instructions") as caught:
            parse_request(data, self.REGISTRY, memo)
        assert caught.value.field == "request.program.regions"
        monkeypatch.setattr(wire_mod, "MAX_INSTRUCTIONS", total)
        monkeypatch.setattr(wire_mod, "MAX_REGIONS", len(program.regions) - 1)
        with pytest.raises(WireError, match="too many regions") as caught:
            parse_request(data, self.REGISTRY, memo)
        assert caught.value.field == "request.program.regions"
        monkeypatch.setattr(wire_mod, "MAX_REGIONS", len(program.regions))
        assert parse_request(data, self.REGISTRY, memo).region_hits == 3

    def test_malformed_region_after_memoized_ones(self):
        good = _decoded(_joined([p for _, p in _suite("vliw4")[:2]]), "vliw4")
        memo = BoundedLRU(REGION_MEMO_CAPACITY)
        parse_request(good, self.REGISTRY, memo)
        bad = copy.deepcopy(good)
        broken = copy.deepcopy(bad["program"]["regions"][0])
        _dangle(broken)
        bad["program"]["regions"].append(broken)
        errors = []
        for through in (memo, memo, None):
            with pytest.raises(WireError) as caught:
                parse_request(bad, self.REGISTRY, through)
            errors.append((caught.value.field, caught.value.message))
        position = len(broken["edges"]["dst"]) - 1
        assert errors == [(f"request.program.regions[2].edges.dst[{position}]",
                           "uid 10000 out of range")] * 3

    def test_threads_share_one_memo(self):
        suite = [p for _, p in _suite("vliw4")]
        n = len(suite)
        bodies = [
            _decoded(_joined([suite[i], suite[(i + 2) % n], suite[(i + 5) % n]]),
                     "vliw4", seed=i)
            for i in range(n)
        ]
        expected = [_unmemoized_keys(data) for data in bodies]
        memo = BoundedLRU(REGION_MEMO_CAPACITY)

        def parse_all(start):
            order = list(range(start, n)) + list(range(start))
            keys = {i: _keys(parse_request(bodies[i], self.REGISTRY, memo))
                    for i in order}
            return [keys[i] for i in range(n)]

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(parse_all, range(4)))
        assert results == [expected] * 4
        assert len(memo) == n

    def test_memo_never_exceeds_its_capacity(self):
        class Watched(BoundedLRU):
            peak = 0

            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                self.peak = max(self.peak, len(self))

        memo = Watched(2)
        data = _decoded(_joined([p for _, p in _suite("vliw4")]), "vliw4")
        for _ in range(2):
            parsed = parse_request(data, self.REGISTRY, memo)
            assert _keys(parsed) == _unmemoized_keys(data)
        assert memo.peak == len(memo) == 2

    def test_requests_naming_one_spec_share_one_machine(self):
        """Two different raw4x4 bodies resolve to one ``Machine`` through
        the server's spec memo, with the keys of a fresh parse."""
        suite = dict(_suite("raw4x4"))
        bodies = [_decoded(suite[name], "raw4x4") for name in ("sha", "mxm")]
        machines = BoundedLRU(SPEC_MEMO_CAPACITY)
        memo = BoundedLRU(REGION_MEMO_CAPACITY)
        first, second = (
            parse_request(data, self.REGISTRY, memo, machines) for data in bodies
        )
        assert first.machine is second.machine
        for data, parsed in zip(bodies, (first, second)):
            assert _keys(parsed) == _keys(parse_request(data, self.REGISTRY))
            assert _keys(parsed) == _unmemoized_keys(data)
        with pytest.raises(WireError):
            parse_request(dict(bodies[0], machine="cray1"), self.REGISTRY,
                          memo, machines)
        assert len(machines) == 1
        with ServerThread() as thread:
            first, second = (
                thread.server._parse_body(_body(suite[name], "raw4x4", "pcc"))
                for name in ("sha", "mxm")
            )
        assert first.machine is second.machine

    def test_recombined_body_hits_region_memo(self):
        """Programs A and B, then A+B: every region of the new body comes
        from the memo, and it is served warm with serial cycles."""
        machine = machine_from_spec("vliw4")
        parts = [build_benchmark(name, machine) for name in ("fir", "mxm")]
        combined = _joined(parts)
        with ServerThread() as thread:
            for program in parts:
                status, _, payload = _post(thread, _body(program, "vliw4", "convergent"))
                assert (status, payload["served"]) == (200, "compile")
            before = _counters(thread)
            status, _, payload = _post(thread, _body(combined, "vliw4", "convergent"))
            after = _counters(thread)
        assert status == 200
        assert payload["served"] == "cache"
        assert after["serve.region_hits"] - before["serve.region_hits"] == len(
            combined.regions
        )
        assert after["serve.region_misses"] == before["serve.region_misses"]
        serial = run_program(combined, machine, ConvergentScheduler(), check_values=False)
        assert payload["result"]["cycles"] == serial.cycles
        assert _canon(payload["result"]) == _canon(program_result_to_dict(serial))

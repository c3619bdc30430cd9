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

import pytest
from hypothesis import given, settings

import repro.serve.server as server_mod
from repro.core.convergent import ConvergentScheduler
from repro.engine import schedule_key
from repro.engine.fingerprint import ddg_fingerprint
from repro.faults.chaos import RaisingPass
from repro.harness.experiment import run_program
from repro.harness.results import program_result_to_dict
from repro.ir import Program
from repro.machine import machine_from_spec
from repro.schedulers.fallback import FallbackChain
from repro.serve import (
    ServeConfig,
    ServerThread,
    compile_request,
    parse_request,
    program_from_dict,
    program_to_dict,
)
from repro.serve.loadtest import http_request
from repro.verify.sweep import scheduler_registry
from repro.workloads import RAW_SUITE, VLIW_SUITE, build_benchmark

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
        with srv._response_lock:
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


def _mutations():
    """Named malformed-request bodies; each must earn a structured 400."""
    base = compile_request(build_benchmark("vvmul"), "vliw4", "convergent")

    def mutate(**changes):
        bad = json.loads(json.dumps(base))
        bad.update(changes)
        return bad

    bad_opcode = json.loads(json.dumps(base))
    bad_opcode["program"]["regions"][0]["instructions"][0]["opcode"] = "zorp"
    bad_edge = json.loads(json.dumps(base))
    bad_edge["program"]["regions"][0]["edges"].append([0, 10_000, 1, "data"])
    bad_trip = json.loads(json.dumps(base))
    bad_trip["program"]["regions"][0]["trip_count"] = -4
    return {
        "not-json": b"{nope",
        "wrong-kind": json.dumps(mutate(kind="frobnicate")).encode(),
        "wrong-schema": json.dumps(mutate(schema=99)).encode(),
        "unknown-scheduler": json.dumps(mutate(scheduler="doom")).encode(),
        "unknown-machine": json.dumps(mutate(machine="cray1")).encode(),
        "program-not-dict": json.dumps(mutate(program=[1, 2])).encode(),
        "bool-seed": json.dumps(mutate(seed=True)).encode(),
        "bad-opcode": json.dumps(bad_opcode).encode(),
        "dangling-edge": json.dumps(bad_edge).encode(),
        "negative-trip-count": json.dumps(bad_trip).encode(),
    }


class TestProtocolRobustness:
    """Malformed input is rejected in-band; duplicates coalesce."""

    @pytest.mark.parametrize("case", sorted(_mutations()))
    def test_malformed_request_gets_structured_400(self, server, case):
        status, _, payload = _post(server, _mutations()[case])
        assert status == 400, case
        assert payload["kind"] == "error"
        error = payload["error"]
        assert error["type"] == "bad_request"
        assert "message" in error and "field" in error
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

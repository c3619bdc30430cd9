"""Equivalence suite for the compilation engine.

The engine's contract is *cycle-identity*: running the harness through
a worker pool (``jobs>1``) or through the content-addressed schedule
cache must produce exactly the numbers the classic serial path
produces.  This suite pins that contract for every registered
scheduler, on both machine models, over the full workload suites —
comparing serialized :class:`~repro.harness.experiment.ProgramResult`
objects modulo wall-clock timing, and raw schedules op for op.
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import os
import pickle
import shutil
from pathlib import Path

import pytest

import repro.engine.cache as cache_module
from repro.engine import (
    CACHE_HIT,
    CompilationEngine,
    Fingerprint,
    RegionTask,
    ScheduleCache,
    execute_task,
    schedule_key,
)
from repro.harness import run_program
from repro.harness.results import program_result_to_dict
from repro.ir import DataDependenceGraph, Opcode
from repro.ir.instruction import Instruction
from repro.ir.regions import Region
from repro.machine import ClusteredVLIW, RawMachine, machine_from_spec
from repro.schedulers.schedule import CommEvent, Schedule, ScheduledOp
from repro.verify import verify_schedule
from repro.verify.sweep import scheduler_registry
from repro.workloads import build_benchmark, suite_for_machine

MACHINES = {
    "raw4x4": RawMachine(4, 4),
    "vliw4": ClusteredVLIW(4),
}
SCHEDULERS = sorted(scheduler_registry())


def suite_for(machine_key):
    """The paper suite evaluated on the given machine."""
    return suite_for_machine(MACHINES[machine_key])


def make_scheduler(name):
    """Fresh default-configured scheduler from the registry."""
    return scheduler_registry()[name]()


def scrubbed(result):
    """``ProgramResult`` as a dict with wall-clock fields neutralized.

    ``compile_seconds`` is genuine elapsed time and differs between any
    two runs; everything else must match exactly.  Metrics are compared
    separately (they embed timing histograms).
    """
    data = copy.deepcopy(program_result_to_dict(result))
    data["compile_seconds"] = 0.0
    data["metrics"] = None
    for region in data["regions"]:
        region["compile_seconds"] = 0.0
    return data


#: Memoized serial ground truth: (scheduler, machine) -> (results, cache).
#: The serial pass runs cold *through* a cache so the warm-rerun tests
#: can replay it without paying a second full compile of the grid.
_SERIAL = {}


def serial_ground_truth(scheduler_name, machine_key):
    """Serial full-suite results plus the cache the cold run populated."""
    key = (scheduler_name, machine_key)
    if key not in _SERIAL:
        machine = MACHINES[machine_key]
        cache = ScheduleCache()
        results = {}
        for benchmark in suite_for(machine_key):
            program = build_benchmark(benchmark, machine)
            results[benchmark] = scrubbed(
                run_program(
                    program, machine, make_scheduler(scheduler_name),
                    check_values=False, cache=cache,
                )
            )
        _SERIAL[key] = (results, cache)
    return _SERIAL[key]


@pytest.fixture(scope="module")
def engine2():
    """One warm two-worker pool shared by the whole module."""
    with CompilationEngine(jobs=2) as engine:
        yield engine


class TestParallelEqualsSerial:
    """jobs=2 over the full grid; jobs=4 for the paper scheduler."""

    @pytest.mark.parametrize("machine_key", sorted(MACHINES))
    @pytest.mark.parametrize("scheduler_name", SCHEDULERS)
    def test_jobs2_matches_serial(self, scheduler_name, machine_key, engine2):
        expected, _ = serial_ground_truth(scheduler_name, machine_key)
        machine = MACHINES[machine_key]
        for benchmark in suite_for(machine_key):
            program = build_benchmark(benchmark, machine)
            parallel = run_program(
                program, machine, make_scheduler(scheduler_name),
                check_values=False, engine=engine2,
            )
            assert scrubbed(parallel) == expected[benchmark], (
                f"{scheduler_name}/{machine_key}/{benchmark}: "
                "jobs=2 diverged from serial"
            )

    @pytest.mark.parametrize("machine_key", sorted(MACHINES))
    def test_jobs4_convergent_matches_serial(self, machine_key):
        expected, _ = serial_ground_truth("convergent", machine_key)
        machine = MACHINES[machine_key]
        with CompilationEngine(jobs=4) as engine:
            for benchmark in suite_for(machine_key):
                program = build_benchmark(benchmark, machine)
                parallel = run_program(
                    program, machine, make_scheduler("convergent"),
                    check_values=False, engine=engine,
                )
                assert scrubbed(parallel) == expected[benchmark]

    def test_value_checked_path_matches_serial(self, engine2):
        """The interpreter-replay path survives the pool too."""
        machine = MACHINES["vliw4"]
        program = build_benchmark("mxm", machine)
        serial = run_program(
            program, machine, make_scheduler("convergent"), check_values=True,
        )
        parallel = run_program(
            program, machine, make_scheduler("convergent"), check_values=True,
            engine=engine2,
        )
        assert scrubbed(parallel) == scrubbed(serial)

    def test_metrics_counters_match_serial(self, engine2):
        """Counter metrics (not timing histograms) are jobs-invariant."""
        from repro.observability.metrics import MetricsRegistry

        machine = MACHINES["raw4x4"]
        program = build_benchmark("jacobi", machine)
        snapshots = []
        for engine in (None, engine2):
            registry = MetricsRegistry()
            run_program(
                program, machine, make_scheduler("convergent"),
                check_values=False, registry=registry, engine=engine,
            )
            snapshots.append(registry.snapshot())
        serial, parallel = snapshots
        assert serial["counters"] == parallel["counters"]
        # Histogram *counts* must agree as well; values may be timing.
        assert {k: v["count"] for k, v in serial["histograms"].items()} == {
            k: v["count"] for k, v in parallel["histograms"].items()
        }


class TestSchedulesIdentical:
    """Beyond cycle counts: the schedules themselves are op-identical."""

    @staticmethod
    def _flatten(schedule):
        ops = sorted(
            (op.uid, op.cluster, op.unit, op.start, op.latency)
            for op in schedule.ops.values()
        )
        comms = sorted(
            (c.producer_uid, c.src, c.dst, c.issue, c.arrival,
             tuple(c.resources))
            for c in schedule.comms
        )
        return ops, comms

    @pytest.mark.parametrize("scheduler_name", ["convergent", "rawcc", "uas"])
    def test_serial_and_parallel_schedules_identical(
        self, scheduler_name, engine2
    ):
        machine = MACHINES["raw4x4"]
        program = build_benchmark("mxm", machine)
        tasks = [
            RegionTask(
                index=i, region=region, machine=machine,
                scheduler=make_scheduler(scheduler_name),
                check_values=False, capture_errors=True,
            )
            for i, region in enumerate(program.regions)
        ]
        with CompilationEngine(jobs=1) as serial_engine:
            serial = serial_engine.run_tasks(copy.deepcopy(tasks))
        parallel = engine2.run_tasks(copy.deepcopy(tasks))
        assert len(serial) == len(parallel) == len(program.regions)
        for s, p in zip(serial, parallel):
            assert s.index == p.index
            assert s.schedule is not None and p.schedule is not None
            assert self._flatten(s.schedule) == self._flatten(p.schedule)


class TestCacheEquivalence:
    """Warm reruns replay the cold run's numbers exactly."""

    @pytest.mark.parametrize("machine_key", sorted(MACHINES))
    @pytest.mark.parametrize("scheduler_name", SCHEDULERS)
    def test_warm_rerun_matches_cold(self, scheduler_name, machine_key):
        expected, cache = serial_ground_truth(scheduler_name, machine_key)
        machine = MACHINES[machine_key]
        before = cache.stats.to_dict()
        ok_regions = 0
        for benchmark in suite_for(machine_key):
            program = build_benchmark(benchmark, machine)
            warm = run_program(
                program, machine, make_scheduler(scheduler_name),
                check_values=False, cache=cache,
            )
            assert scrubbed(warm) == expected[benchmark], (
                f"{scheduler_name}/{machine_key}/{benchmark}: "
                "warm cache rerun diverged from cold run"
            )
            ok_regions += sum(1 for r in warm.regions if r.ok)
        after = cache.stats.to_dict()
        # Every region that succeeded cold was stored, so the warm pass
        # must serve every one of them from the cache.
        assert after["hits"] - before["hits"] == ok_regions
        assert after["stores"] == before["stores"]

    def test_parallel_cached_matches_serial(self):
        """A parallel run *through* a cache (cold and warm passes) still
        matches the serial ground truth; per-worker memory caches can
        change hit counts, never numbers."""
        expected, _ = serial_ground_truth("convergent", "vliw4")
        machine = MACHINES["vliw4"]
        cache = ScheduleCache()
        with CompilationEngine(jobs=2, cache=cache) as engine:
            for _ in range(2):  # cold, then (possibly) warm
                for benchmark in suite_for("vliw4"):
                    program = build_benchmark(benchmark, machine)
                    result = run_program(
                        program, machine, make_scheduler("convergent"),
                        check_values=False, engine=engine,
                    )
                    assert scrubbed(result) == expected[benchmark]

    def test_disk_cache_round_trip(self, tmp_path):
        """A disk-backed cache survives a fresh process-independent
        cache object and still replays identical results."""
        machine = MACHINES["vliw4"]
        program = build_benchmark("fir", machine)
        cold_cache = ScheduleCache(disk_dir=tmp_path)
        cold = run_program(
            program, machine, make_scheduler("convergent"),
            check_values=False, cache=cold_cache,
        )
        warm_cache = ScheduleCache(disk_dir=tmp_path)
        warm = run_program(
            program, machine, make_scheduler("convergent"),
            check_values=False, cache=warm_cache,
        )
        assert scrubbed(warm) == scrubbed(cold)
        assert warm_cache.stats.hits == sum(1 for r in cold.regions if r.ok)

    def test_cache_hit_outcome_flagged(self):
        """run_tasks reports hit/miss status and replayed schedules."""
        machine = MACHINES["vliw4"]
        region = build_benchmark("vvmul", machine).regions[0]
        cache = ScheduleCache()
        task = RegionTask(
            index=0, region=region, machine=machine,
            scheduler=make_scheduler("convergent"), check_values=False,
        )
        with CompilationEngine(jobs=1, cache=cache) as engine:
            cold = engine.run_tasks([copy.deepcopy(task)])[0]
            warm = engine.run_tasks([copy.deepcopy(task)])[0]
        assert cold.cache_status == "miss"
        assert warm.cache_status == CACHE_HIT
        assert warm.result.cycles == cold.result.cycles
        assert TestSchedulesIdentical._flatten(
            warm.schedule
        ) == TestSchedulesIdentical._flatten(cold.schedule)


class TestNoLostRegions:
    """Index-keyed merge: every region yields exactly one result."""

    @pytest.mark.parametrize("machine_key", sorted(MACHINES))
    def test_region_result_association_by_index(self, machine_key, engine2):
        machine = MACHINES[machine_key]
        for benchmark in suite_for(machine_key)[:2]:
            program = build_benchmark(benchmark, machine)
            result = run_program(
                program, machine, make_scheduler("convergent"),
                check_values=False, engine=engine2,
            )
            assert [r.region_name for r in result.regions] == [
                region.name for region in program.regions
            ]

    def test_declining_scheduler_equivalence(self, engine2):
        """Captured per-region failures (a scheduler declining) merge
        identically in serial and parallel mode — and the single-cluster
        baseline genuinely declines on Raw, so the failure path is
        actually exercised, not vacuously green."""
        expected, _ = serial_ground_truth("single", "raw4x4")
        machine = MACHINES["raw4x4"]
        statuses = set()
        for benchmark in suite_for("raw4x4"):
            program = build_benchmark(benchmark, machine)
            parallel = run_program(
                program, machine, make_scheduler("single"),
                check_values=False, engine=engine2,
            )
            assert scrubbed(parallel) == expected[benchmark]
            statuses.update(r.status for r in parallel.regions)
        assert "failed" in statuses


class TestResilienceEquivalence:
    """Fallback degradation through the engine: identical everywhere.

    A caller's own engine, serial or ``jobs=N``, reports byte-identical
    results to a run without one; and when a chain primary *does*
    fail, the outcome says exactly how far down the chain the result
    came from, serial and pooled alike.
    """

    def _chain(self, raising=False):
        from repro.core import ConvergentScheduler
        from repro.faults import make_fault
        from repro.schedulers import (
            FallbackChain,
            SingleClusterScheduler,
            UnifiedAssignAndSchedule,
        )

        passes = [make_fault("raise")] if raising else None
        return FallbackChain(
            [
                ConvergentScheduler(passes=passes, seed=0, guard=False),
                UnifiedAssignAndSchedule(),
                SingleClusterScheduler(),
            ]
        )

    def test_happy_path_serial_equals_jobs2_equals_legacy(self):
        machine = MACHINES["vliw4"]
        program = build_benchmark("mxm", machine)
        legacy = scrubbed(
            run_program(
                program, machine, make_scheduler("convergent"),
                check_values=False,
            )
        )
        serial = scrubbed(
            run_program(
                program, machine, make_scheduler("convergent"),
                check_values=False, engine=CompilationEngine(),
            )
        )
        with CompilationEngine(jobs=2) as engine:
            parallel = scrubbed(
                run_program(
                    program, machine, make_scheduler("convergent"),
                    check_values=False, engine=engine,
                )
            )
        assert serial == legacy
        assert parallel == legacy

    def test_degradation_level_reported_accurately(self):
        from repro.engine import RegionTask

        machine = MACHINES["vliw4"]
        program = build_benchmark("vvmul", machine)
        with CompilationEngine(jobs=1) as engine:
            outcomes = engine.run_tasks(
                [
                    RegionTask(
                        index=0, region=program.regions[0], machine=machine,
                        scheduler=self._chain(raising=True), check_values=False,
                    ),
                    RegionTask(
                        index=1, region=program.regions[0], machine=machine,
                        scheduler=self._chain(raising=False), check_values=False,
                    ),
                ]
            )
        degraded, clean = outcomes
        assert degraded.result.ok and degraded.degradation_level == 1
        assert clean.result.ok and clean.degradation_level == 0

    def test_degraded_results_still_verify_clean(self):
        machine = MACHINES["vliw4"]
        program = build_benchmark("vvmul", machine)
        result = run_program(
            program, machine, self._chain(raising=True),
            check_values=False, verify=True, engine=CompilationEngine(),
        )
        assert result.ok
        assert all(r.verified for r in result.regions)

    def test_resilient_jobs2_chain_storm_matches_serial(self):
        """Chain-wrapped chaos through a pool: identical to a serial
        run, region for region."""
        machine = MACHINES["vliw4"]
        program = build_benchmark("fir", machine)
        serial = run_program(
            program, machine, self._chain(raising=True),
            check_values=False, engine=CompilationEngine(),
        )
        with CompilationEngine(jobs=2) as engine:
            parallel = run_program(
                program, machine, self._chain(raising=True),
                check_values=False, engine=engine,
            )
        assert scrubbed(parallel) == scrubbed(serial)


class TestTraceShipping:
    """Worker tracers ship their records home: ``RegionTask.trace`` asks
    for a private tracer, ``TaskOutcome.trace_records`` carries its
    dump back, and ``Tracer.absorb`` folds it into the ambient one."""

    def test_pooled_trace_matches_inline(self, engine2):
        from repro.observability.tracer import Tracer, tracing

        machine = MACHINES["vliw4"]
        program = build_benchmark("mxm", machine)
        runs = []
        for engine in (None, engine2):
            tracer = Tracer()
            with tracing(tracer):
                result = run_program(
                    program, machine, make_scheduler("convergent"),
                    check_values=False, engine=engine,
                )
            runs.append((result.cycles, tracer.spans()))
        (inline_cycles, inline_spans), (pooled_cycles, pooled_spans) = runs
        assert pooled_cycles == inline_cycles
        assert inline_spans
        assert [s.name for s in pooled_spans] == [s.name for s in inline_spans]
        # Absorbed records are stamped with the worker that produced them.
        assert any("worker" in s.fields for s in pooled_spans)
        assert not any("worker" in s.fields for s in inline_spans)


class TestMapFanOutEquivalence:
    """``engine.map`` at ``jobs=2`` ≡ an inline engine, for each harness
    that fans its cells or trials out through it."""

    def test_bench_cells_and_plan(self, engine2):
        from repro.observability.bench import run_bench

        kwargs = dict(
            machines=[MACHINES["vliw4"]], benchmarks=["vvmul"], repeats=1,
            collect_phases=False,
        )
        inline = run_bench(engine=CompilationEngine(), **kwargs)
        pooled = run_bench(engine=engine2, **kwargs)
        assert [(c.key, c.quality) for c in pooled.cells] == [
            (c.key, c.quality) for c in inline.cells
        ]
        assert pooled.config["plan"] == inline.config["plan"]
        assert (inline.config["jobs"], inline.environment["jobs"]) == (1, "1")
        assert (pooled.config["jobs"], pooled.environment["jobs"]) == (2, "2")

    def test_sweep_cells(self, engine2):
        from repro.verify import run_sweep

        def cells(report):
            return [
                (c.machine, c.benchmark, c.region, c.scheduler, c.status,
                 c.detail, c.report.render() if c.report else None)
                for c in report.cells
            ]

        kwargs = dict(machines=[MACHINES["vliw4"]], benchmarks=["vvmul"])
        inline = run_sweep(engine=CompilationEngine(), **kwargs)
        pooled = run_sweep(engine=engine2, **kwargs)
        assert len(inline.cells) == len(SCHEDULERS)
        assert cells(pooled) == cells(inline)

    def test_campaign_outcomes_and_ledger_rows(self):
        import dataclasses

        from repro.faults import run_campaign
        from repro.observability.flight import FlightLedger

        machine = MACHINES["vliw4"]
        regions = [
            region
            for name in ("vvmul", "fir")
            for region in build_benchmark(name, machine).regions
        ]

        def outcomes(report):
            return [
                dataclasses.replace(
                    o, result=dataclasses.replace(o.result, compile_seconds=0.0),
                    worker=0, started_s=0.0, finished_s=0.0,
                )
                for o in report.outcomes
            ]

        def rows(ledger):
            timing = ("worker", "submit_s", "start_s", "finish_s",
                      "queue_wait_s", "execute_s")
            return [
                {k: v for k, v in r.to_dict().items() if k not in timing}
                for r in ledger.records
            ]

        inline_ledger, pooled_ledger = FlightLedger(), FlightLedger()
        inline = run_campaign(
            machine, regions, n_trials=12, seed=0,
            engine=CompilationEngine(ledger=inline_ledger),
        )
        with CompilationEngine(jobs=2, ledger=pooled_ledger) as engine:
            pooled = run_campaign(machine, regions, n_trials=12, seed=0, engine=engine)
        assert outcomes(pooled) == outcomes(inline)
        assert len(inline_ledger) == 12
        assert rows(pooled_ledger) == rows(inline_ledger)


# ----------------------------------------------------------------------
# Decoded cache entries
# ----------------------------------------------------------------------

#: A disk entry written by the JSON-text memory layer the decoded one
#: replaced, under the key of :func:`_golden_entry_request`.  The current
#: code must write the same bytes and serve them as a hit.
GOLDEN_ENTRY = Path(__file__).parent / "data" / "schedule_cache_entry.json"
GOLDEN_ENTRY_KEY = "81204cbbc94f835677ce1d108174cf586e93a286954f52ba8845de41d3a7562a"


def _golden_entry_request():
    """The 4-instruction raw2x2 region the golden entry is keyed on, and
    its fingerprint under a default convergent scheduler."""
    ddg = DataDependenceGraph(name="golden_entry")
    a = ddg.new_instruction(Opcode.LI, immediate=2.5)
    b = ddg.new_instruction(Opcode.LI, immediate=3)
    c = ddg.new_instruction(Opcode.FMUL, [a.uid, b.uid])
    ddg.new_instruction(Opcode.STORE, [c.uid], bank=1)
    region = Region("golden_entry", ddg)
    return region, schedule_key(region, machine_from_spec("raw2x2"), make_scheduler("convergent"))


def _golden_entry_schedule():
    """The hand-built schedule stored in the golden entry."""
    schedule = Schedule(
        region_name="golden_entry", machine_name="raw2x2", scheduler_name="convergent"
    )
    schedule.add_op(ScheduledOp(uid=0, cluster=0, unit=0, start=0, latency=1))
    schedule.add_op(ScheduledOp(uid=1, cluster=1, unit=0, start=0, latency=1))
    schedule.add_op(ScheduledOp(uid=2, cluster=0, unit=1, start=3, latency=4))
    schedule.add_op(ScheduledOp(uid=3, cluster=0, unit=2, start=7, latency=1))
    schedule.add_comm(CommEvent(
        producer_uid=1, src=1, dst=0, issue=1, arrival=3,
        resources=(("switch", 1, 0), ("switch", 0, 0)),
    ))
    return schedule


def _put_golden(cache, fingerprint):
    cache.put(
        fingerprint, _golden_entry_schedule(), cycles=9, transfers=1,
        utilization=0.375, comm_busy=2, compile_seconds=0.125,
        verified=True, diagnostics=["V203 example"],
    )


def _flat(schedule):
    """A schedule's ops and comms as sorted plain tuples."""
    ops = sorted(
        (op.uid, op.cluster, op.unit, op.start, op.latency)
        for op in schedule.ops.values()
    )
    comms = sorted(
        (ev.producer_uid, ev.src, ev.dst, ev.issue, ev.arrival, tuple(ev.resources))
        for ev in schedule.comms
    )
    return ops, comms


def _relabelled(region):
    """An isomorphic copy of ``region`` with its uids reversed, plus
    ``new_uid_of[old_uid]``; every adjacency list keeps its order."""
    ddg = region.ddg
    order = list(reversed(range(len(ddg))))
    new_of = {old: new for new, old in enumerate(order)}
    copy_ddg = DataDependenceGraph(name=ddg.name)
    for new, old in enumerate(order):
        inst = ddg.instruction(old)
        copy_ddg.add_instruction(Instruction(
            uid=new, opcode=inst.opcode,
            operands=tuple(new_of[op] for op in inst.operands),
            home_cluster=inst.home_cluster, name=inst.name,
            bank=inst.bank, immediate=inst.immediate,
        ))
    for old in order:
        for edge in ddg.successors(old):
            copy_ddg.add_dependence(
                new_of[edge.src], new_of[edge.dst],
                latency=edge.latency, kind=edge.kind,
            )
    return Region(region.name, copy_ddg), new_of


class TestDecodedCacheEntries:
    """The memory layer keeps decoded entries; hits are rebuilt fresh."""

    def test_hit_under_relabelled_permutation(self):
        machine = MACHINES["vliw4"]
        # yuv's hashes tell every node apart, so the canonical order, and
        # with it the key, does not depend on the uid labelling.
        region = build_benchmark("yuv", machine).regions[0]
        scheduler = make_scheduler("uas")
        stored = scheduler.schedule(region, machine)
        fingerprint = schedule_key(region, machine, scheduler)
        cache = ScheduleCache()
        cache.put(
            fingerprint, stored, cycles=5, transfers=2, utilization=0.25,
            comm_busy=3, compile_seconds=0.5,
        )
        other, new_of = _relabelled(region)
        assert any(new != old for old, new in new_of.items())
        requested = schedule_key(other, machine, scheduler)
        assert requested.key == fingerprint.key
        hit = cache.get(requested, other)
        assert hit is not None
        # Position p of the stored graph is position p of the requester's.
        uid_of = requested.uid_of_position()
        moved = Schedule(region_name=other.name, machine_name=stored.machine_name)
        for op in stored.ops.values():
            uid = uid_of[fingerprint.permutation[op.uid]]
            moved.add_op(ScheduledOp(uid, op.cluster, op.unit, op.start, op.latency))
        for ev in stored.comms:
            moved.add_comm(CommEvent(
                uid_of[fingerprint.permutation[ev.producer_uid]],
                ev.src, ev.dst, ev.issue, ev.arrival, ev.resources,
            ))
        assert _flat(hit.schedule) == _flat(moved)
        assert verify_schedule(other, machine, hit.schedule).ok
        assert (hit.cycles, hit.transfers, hit.comm_busy) == (5, 2, 3)
        assert (hit.utilization, hit.compile_seconds) == (0.25, 0.5)

    def test_mutating_a_hit_never_reaches_a_later_hit(self):
        region, fingerprint = _golden_entry_request()
        cache = ScheduleCache()
        _put_golden(cache, fingerprint)
        first = cache.get(fingerprint, region)
        pristine = _flat(first.schedule)
        assert pristine == _flat(_golden_entry_schedule())
        first.schedule.ops.clear()
        first.schedule.ops[99] = ScheduledOp(99, 0, 0, 0, 1)
        first.schedule.comms.clear()
        first.schedule.machine_name = "vandalized"
        first.diagnostics.append("vandalized")
        second = cache.get(fingerprint, region)
        assert _flat(second.schedule) == pristine
        assert second.schedule.machine_name == "raw2x2"
        assert second.diagnostics == ["V203 example"]
        assert second.schedule is not first.schedule

    def test_golden_disk_entry_is_written_byte_identically(self, tmp_path):
        _, fingerprint = _golden_entry_request()
        assert fingerprint.key == GOLDEN_ENTRY_KEY
        _put_golden(ScheduleCache(disk_dir=tmp_path), fingerprint)
        written = tmp_path / f"{GOLDEN_ENTRY_KEY}.json"
        assert written.read_text() == GOLDEN_ENTRY.read_text()

    def test_golden_disk_entry_is_served_as_a_hit(self, tmp_path):
        shutil.copy(GOLDEN_ENTRY, tmp_path / f"{GOLDEN_ENTRY_KEY}.json")
        region, fingerprint = _golden_entry_request()
        cache = ScheduleCache(disk_dir=tmp_path)
        for _ in range(2):  # from disk, then from the memory layer
            hit = cache.get(fingerprint, region)
            assert hit is not None
            assert _flat(hit.schedule) == _flat(_golden_entry_schedule())
            assert hit.schedule.region_name == "golden_entry"
            assert hit.schedule.scheduler_name == "convergent"
            assert (hit.cycles, hit.transfers, hit.comm_busy) == (9, 1, 2)
            assert (hit.utilization, hit.compile_seconds) == (0.375, 0.125)
            assert (hit.verified, hit.diagnostics) == (True, ["V203 example"])
        assert cache.stats.to_dict() == {
            "hits": 2, "misses": 0, "stores": 0, "evictions": 0,
            "corrupt": 0, "quarantined": 0,
        }

    @staticmethod
    def _malformed_entry_file(tmp_path):
        """The golden file with a 4-field op row, checksum still valid."""
        wrapper = json.loads(GOLDEN_ENTRY.read_text())
        entry = json.loads(wrapper["payload"])
        entry["schedule"]["ops"][0] = entry["schedule"]["ops"][0][:4]
        wrapper["payload"] = json.dumps(entry, sort_keys=True)
        wrapper["sha256"] = hashlib.sha256(wrapper["payload"].encode()).hexdigest()
        victim = tmp_path / f"{GOLDEN_ENTRY_KEY}.json"
        victim.write_text(json.dumps(wrapper, sort_keys=True))
        return victim

    def test_malformed_entry_is_quarantined(self, tmp_path):
        """A checksum-valid file whose entry does not decode is corrupt."""
        victim = self._malformed_entry_file(tmp_path)
        region, fingerprint = _golden_entry_request()
        cache = ScheduleCache(disk_dir=tmp_path)
        assert cache.get(fingerprint, region) is None
        assert (cache.stats.corrupt, cache.stats.quarantined, cache.stats.misses) == (1, 1, 1)
        assert not victim.exists()
        assert (tmp_path / "quarantine" / victim.name).exists()
        assert len(cache) == 0

    def test_verify_disk_flags_what_get_would_quarantine(self, tmp_path):
        victim = self._malformed_entry_file(tmp_path)
        report = ScheduleCache(disk_dir=tmp_path).verify_disk()
        assert (report["checked"], report["ok"], report["corrupt"]) == (1, 0, 1)
        assert not victim.exists()
        shutil.copy(GOLDEN_ENTRY, victim)
        assert ScheduleCache(disk_dir=tmp_path).verify_disk()["ok"] == 1


# ----------------------------------------------------------------------
# Lazy cache hits
# ----------------------------------------------------------------------


def _eager_schedule(entry, fingerprint, region):
    """The schedule a hit used to build inside ``ScheduleCache.get``,
    kept as the reference a hit's on-demand schedule must equal."""
    uid_of = fingerprint.uid_of_position()
    schedule = Schedule(
        region_name=region.name,
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


def _warm_task(region, machine, scheduler_name="convergent"):
    return RegionTask(
        index=0, region=region, machine=machine,
        scheduler=make_scheduler(scheduler_name), check_values=False,
    )


class _RecordingUnpickler(pickle.Unpickler):
    """Unpickles while recording every ``(module, name)`` it imports."""

    def __init__(self, data):
        super().__init__(io.BytesIO(data))
        self.found = []

    def find_class(self, module, name):
        self.found.append((module, name))
        return super().find_class(module, name)


class TestLazyCacheHits:
    """A hit carries its numbers; its schedule is built only when read."""

    @pytest.mark.parametrize("machine_key", sorted(MACHINES))
    def test_hit_schedule_equals_the_eager_rebuild(self, machine_key):
        _, cache = serial_ground_truth("uas", machine_key)
        machine = MACHINES[machine_key]
        hits = relabelled_hits = 0
        for benchmark in suite_for(machine_key):
            for region in build_benchmark(benchmark, machine).regions:
                other, _ = _relabelled(region)
                for requester in (region, other):
                    fingerprint = schedule_key(
                        requester, machine, make_scheduler("uas"), check_values=False
                    )
                    if fingerprint.key not in cache._memory:
                        continue  # failed cold, or a relabelling that keys apart
                    entry = cache._memory[fingerprint.key]
                    hit = cache.get(fingerprint, requester)
                    assert hit.schedule == _eager_schedule(entry, fingerprint, requester), (
                        f"{machine_key}/{benchmark}/{region.name}"
                    )
                    hits += 1
                    relabelled_hits += requester is other
        assert hits > relabelled_hits > 0

    def test_two_hits_never_share_a_schedule(self):
        region, fingerprint = _golden_entry_request()
        cache = ScheduleCache()
        _put_golden(cache, fingerprint)
        first = cache.get(fingerprint, region)
        second = cache.get(fingerprint, region)  # fetched, not yet read
        schedule = first.schedule
        assert first.schedule is schedule  # built once
        pristine = _flat(schedule)
        schedule.ops.clear()
        schedule.comms.append(None)
        schedule.region_name = "vandalized"
        assert second.schedule is not schedule
        assert second.schedule.ops is not schedule.ops
        assert _flat(second.schedule) == pristine
        third = cache.get(fingerprint, region)
        assert _flat(third.schedule) == pristine
        assert third.schedule.region_name == "golden_entry"

    def test_two_hit_outcomes_never_share_a_schedule(self):
        machine = MACHINES["vliw4"]
        region = build_benchmark("vvmul", machine).regions[0]
        cache = ScheduleCache()
        with CompilationEngine(jobs=1, cache=cache) as engine:
            cold = engine.run_tasks([_warm_task(region, machine)])[0]
            first, second = (engine.run_tasks([_warm_task(region, machine)])[0]
                             for _ in range(2))
        assert first.cache_status == second.cache_status == CACHE_HIT
        pristine = _flat(cold.schedule)
        first.schedule.ops.clear()
        assert second.schedule is not first.schedule
        assert _flat(second.schedule) == pristine

    def test_an_unread_hit_builds_no_scheduled_op(self, monkeypatch):
        machine = MACHINES["vliw4"]
        program = build_benchmark("fir", machine)
        cache = ScheduleCache()
        cold = run_program(program, machine, make_scheduler("convergent"),
                           check_values=False, cache=cache)
        built = []

        def counting(*args):
            built.append(args)
            return ScheduledOp(*args)

        monkeypatch.setattr(cache_module, "ScheduledOp", counting)
        warm = run_program(program, machine, make_scheduler("convergent"),
                           check_values=False, cache=cache)
        assert scrubbed(warm) == scrubbed(cold)
        assert cache.stats.hits == len(program.regions)
        tasks = [_warm_task(region, machine) for region in program.regions]
        with CompilationEngine(jobs=1, cache=cache) as engine:
            outcomes = engine.run_tasks(tasks)
        assert all(o.cache_status == CACHE_HIT for o in outcomes)
        assert built == []
        n_ops = sum(len(o.schedule.ops) for o in outcomes)
        assert len(built) == n_ops > 0

    @staticmethod
    def _bad_entry_file(tmp_path, edit):
        """The golden file with its rows edited by ``edit``, checksum valid."""
        wrapper = json.loads(GOLDEN_ENTRY.read_text())
        entry = json.loads(wrapper["payload"])
        edit(entry["schedule"]["ops"], entry["schedule"]["comms"])
        wrapper["payload"] = json.dumps(entry, sort_keys=True)
        wrapper["sha256"] = hashlib.sha256(wrapper["payload"].encode()).hexdigest()
        victim = tmp_path / f"{GOLDEN_ENTRY_KEY}.json"
        victim.write_text(json.dumps(wrapper, sort_keys=True))
        return victim

    @pytest.mark.parametrize("edit", [
        lambda ops, comms: ops[3].__setitem__(0, 4),
        lambda ops, comms: comms[0].__setitem__(0, 4),
        lambda ops, comms: ops[1].__setitem__(0, ops[0][0]),
        lambda ops, comms: ops[0].__setitem__(0, -1),
        lambda ops, comms: comms[0].__setitem__(0, -4),
    ], ids=["op_past_n", "comm_past_n", "repeated_op", "negative_op", "negative_comm"])
    def test_get_refuses_positions_that_do_not_fit(self, tmp_path, edit):
        victim = self._bad_entry_file(tmp_path, edit)
        region, fingerprint = _golden_entry_request()
        assert len(fingerprint.permutation) == 4
        cache = ScheduleCache(disk_dir=tmp_path)
        assert cache.get(fingerprint, region) is None
        assert cache.stats.to_dict() == {
            "hits": 0, "misses": 1, "stores": 0, "evictions": 0,
            "corrupt": 1, "quarantined": 1,
        }
        assert not victim.exists()
        assert (tmp_path / "quarantine" / victim.name).exists()
        assert len(cache) == 0
        assert cache.get(fingerprint, region) is None  # now a plain miss
        assert (cache.stats.misses, cache.stats.corrupt) == (2, 1)

    def test_a_refused_memory_entry_is_dropped(self):
        region, fingerprint = _golden_entry_request()
        cache = ScheduleCache()
        _put_golden(cache, fingerprint)
        # Under a colliding key, a 3-instruction requester cannot hold
        # the 4-position entry.
        small = Fingerprint(key=fingerprint.key, permutation=(0, 1, 2))
        assert cache.get(small, region) is None
        assert (cache.stats.corrupt, cache.stats.misses, len(cache)) == (1, 1, 0)

    def test_pickled_hit_outcome_round_trips_without_the_region(self):
        machine = MACHINES["raw4x4"]
        region = build_benchmark("mxm", machine).regions[0]
        cache = ScheduleCache()
        cold = execute_task(_warm_task(region, machine), cache)
        warm = execute_task(_warm_task(region, machine), cache)
        assert warm.cache_status == CACHE_HIT
        data = pickle.dumps(warm)
        unpickler = _RecordingUnpickler(data)
        copied = unpickler.load()
        assert not [found for found in unpickler.found if found[0].startswith("repro.ir")]
        assert len(data) < len(pickle.dumps(region))
        assert copied.schedule == warm.schedule
        assert _flat(copied.schedule) == _flat(cold.schedule)
        assert verify_schedule(region, machine, copied.schedule).ok
        again = pickle.loads(pickle.dumps(warm))  # after the build
        assert again.schedule == warm.schedule

    def test_pool_workers_return_hits_that_rebuild(self, tmp_path):
        machine = MACHINES["vliw4"]
        program = build_benchmark("mxm", machine)
        cache = ScheduleCache(disk_dir=tmp_path)
        tasks = [_warm_task(region, machine) for region in program.regions]
        for index, task in enumerate(tasks):
            task.index = index
        with CompilationEngine(jobs=1, cache=cache) as engine:
            cold = engine.run_tasks(copy.deepcopy(tasks))
        with CompilationEngine(jobs=2, cache=ScheduleCache(disk_dir=tmp_path)) as engine:
            warm = engine.run_tasks(copy.deepcopy(tasks))
        assert [o.cache_status for o in warm] == [CACHE_HIT] * len(tasks)
        assert any(o.worker != os.getpid() for o in warm)
        for c, w in zip(cold, warm):
            assert _flat(w.schedule) == _flat(c.schedule)

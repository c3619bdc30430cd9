"""The static verification subsystem: diagnostics, the four checkers,
schedule corruptions, the differential campaign, the harness gate, the
sweep, and the CLI verb.

The calibration bar: every corruption kind in
:data:`repro.faults.corrupt.CORRUPTION_REGISTRY` must trigger exactly
the diagnostic codes it was built for, every registered pass must come
out of the contract analyzer clean, and real schedules from real
schedulers must verify with zero false positives.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.core import ConvergentScheduler, PreferenceMatrix
from repro.core.passes import PASS_REGISTRY, PassContext, SchedulingPass
from repro.core.passes.base import BASE_CONTRACTS, RESPECTS_SQUASHED
from repro.faults import (
    CORRUPTION_REGISTRY,
    EXPECTED_CODES,
    corrupt_schedule,
    make_fault,
    run_campaign,
    run_differential_campaign,
)
from repro.harness import run_region
from repro.harness.results import (
    program_result_from_dict,
    program_result_to_dict,
)
from repro.ir.ddg import DataDependenceGraph
from repro.ir.opcode import Opcode
from repro.machine import ClusteredVLIW, RawMachine
from repro.schedulers.base import Scheduler
from repro.schedulers.schedule import Schedule
from repro.verify import (
    DIAGNOSTIC_CODES,
    ERROR,
    WARNING,
    VerificationError,
    VerificationReport,
    analyze_pass,
    default_fixtures,
    make_diagnostic,
    run_sweep,
    scheduler_registry,
    verify_ddg,
    verify_matrix,
    verify_pass_contracts,
    verify_schedule,
)
from repro.workloads import build_benchmark


@pytest.fixture(scope="module")
def vliw():
    return ClusteredVLIW(4)


@pytest.fixture(scope="module")
def raw():
    return RawMachine(2, 2)


@pytest.fixture(scope="module")
def vliw_case(vliw):
    region = build_benchmark("vvmul", vliw).regions[0]
    schedule = ConvergentScheduler(seed=0).schedule(region, vliw)
    return region, vliw, schedule


@pytest.fixture(scope="module")
def raw_case(raw):
    region = build_benchmark("vvmul", raw).regions[0]
    schedule = ConvergentScheduler(seed=0).schedule(region, raw)
    return region, raw, schedule


@pytest.fixture(params=["vliw_case", "raw_case"])
def case(request):
    return request.getfixturevalue(request.param)


# ---------------------------------------------------------------------------
# Diagnostic model
# ---------------------------------------------------------------------------


class TestDiagnostics:
    def test_registry_blocks_match_checkers(self):
        blocks = {
            "1": "verify_ddg",
            "2": "verify_schedule",
            "3": "verify_matrix",
            "4": "verify_pass_contracts",
        }
        for code, spec in DIAGNOSTIC_CODES.items():
            assert code == spec.code
            assert code[0] == "V" and code[1:].isdigit() and len(code) == 4
            assert spec.checker == blocks[code[1]]
            assert spec.severity in (ERROR, WARNING)
            assert spec.title

    def test_make_diagnostic_rejects_unknown_code(self):
        with pytest.raises(KeyError, match="V999"):
            make_diagnostic("V999", "nope")

    def test_diagnostic_severity_and_render(self):
        diag = make_diagnostic("V206", "double booked", uid=3, cluster=1, cycle=7)
        assert diag.severity == ERROR
        assert diag.checker == "verify_schedule"
        rendered = diag.render()
        for fragment in ("V206", "ERROR", "uid=3", "cluster=1", "cycle=7"):
            assert fragment in rendered

    def test_report_ok_errors_warnings_codes(self):
        report = VerificationReport(subject="unit")
        assert report.ok
        report.add("V218", "warn only")
        assert report.ok and len(report.warnings) == 1
        report.add("V206", "boom", uid=1)
        report.add("V203", "negative")
        assert not report.ok and len(report.errors) == 2
        assert report.codes() == ["V203", "V206", "V218"]

    def test_report_merge(self):
        a = VerificationReport(subject="a")
        a.add("V301", "nan")
        b = VerificationReport(subject="b")
        b.add("V306", "zero")
        a.merge(b)
        assert a.codes() == ["V301", "V306"]

    def test_report_json_round_trip(self):
        report = VerificationReport(subject="rt", checker="verify_schedule")
        report.add("V208", "early", uid=4, cycle=2)
        report.add("V218", "makespan")
        data = json.loads(json.dumps(report.to_dict()))
        back = VerificationReport.from_dict(data)
        assert back.subject == "rt"
        assert back.codes() == report.codes()
        assert back.ok == report.ok
        assert [d.uid for d in back.diagnostics] == [4, None]

    def test_from_dict_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            VerificationReport.from_dict({"kind": "not_a_report"})

    def test_verification_error_message_carries_codes(self):
        report = VerificationReport(subject="r")
        report.add("V206", "x")
        err = VerificationError(report)
        assert err.report is report
        assert "V206" in str(err)


# ---------------------------------------------------------------------------
# verify_ddg (V1xx)
# ---------------------------------------------------------------------------


def _tiny_ddg():
    ddg = DataDependenceGraph(name="tiny")
    a = ddg.new_instruction(Opcode.LI, immediate=1.0)
    b = ddg.new_instruction(Opcode.LI, immediate=2.0)
    c = ddg.new_instruction(Opcode.ADD, operands=(a.uid, b.uid))
    ddg.new_instruction(Opcode.MUL, operands=(c.uid, a.uid))
    return ddg


class TestVerifyDDG:
    def test_clean_graph(self, case):
        region, machine, _ = case
        report = verify_ddg(region.ddg, machine)
        assert report.ok and report.codes() == []

    def test_cycle_is_v101(self):
        ddg = _tiny_ddg()
        ddg.add_dependence(3, 0, latency=0, kind="order")
        assert "V101" in verify_ddg(ddg).codes()

    def test_self_loop_is_v107(self):
        ddg = _tiny_ddg()
        ddg.add_dependence(2, 2, latency=0, kind="order")
        codes = verify_ddg(ddg).codes()
        assert "V107" in codes and "V101" in codes

    def test_negative_latency_is_v106(self):
        # The IR constructor rejects negative latencies, so smuggle one
        # past it the way a corrupted deserialization would.
        ddg = _tiny_ddg()
        edge = ddg.add_dependence(0, 3, latency=0, kind="order")
        object.__setattr__(edge, "latency", -1)
        assert "V106" in verify_ddg(ddg).codes()

    def test_mem_edge_on_non_memory_is_v104(self):
        ddg = _tiny_ddg()
        ddg.add_dependence(2, 3, latency=0, kind="mem")
        assert "V104" in verify_ddg(ddg).codes()

    def test_wrong_data_latency_is_v105_warning(self):
        ddg = _tiny_ddg()
        ddg.add_dependence(0, 3, latency=17, kind="data")
        report = verify_ddg(ddg)
        assert "V105" in report.codes()
        assert report.ok  # warning, not error

    def test_operand_without_edge_is_v102(self):
        ddg = _tiny_ddg()
        inst = ddg.instruction(3)
        ddg._instructions[3] = dataclasses.replace(
            inst, operands=inst.operands + (1,)
        )
        assert "V102" in verify_ddg(ddg).codes()

    def test_operand_of_non_defining_is_v103(self):
        ddg = DataDependenceGraph(name="store-read")
        a = ddg.new_instruction(Opcode.LI, immediate=1.0)
        st = ddg.new_instruction(Opcode.STORE, operands=(a.uid,), bank=0)
        ddg.new_instruction(Opcode.ADD, operands=(a.uid, st.uid))
        assert "V103" in verify_ddg(ddg).codes()

    def test_preplaced_out_of_range_is_v108(self, vliw):
        ddg = DataDependenceGraph(name="badhome")
        ddg.new_instruction(Opcode.LI, immediate=0.0, home_cluster=99)
        assert "V108" in verify_ddg(ddg, vliw).codes()
        assert verify_ddg(ddg).ok  # machine-dependent check needs a machine

    def test_hard_affinity_preplacement_conflict_is_v109(self, raw):
        assert raw.memory_affinity == "hard"
        home = raw.bank_home(0)
        wrong = (home + 1) % raw.n_clusters
        ddg = DataDependenceGraph(name="badbank")
        a = ddg.new_instruction(Opcode.LI, immediate=1.0)
        ddg.new_instruction(
            Opcode.STORE, operands=(a.uid,), bank=0, home_cluster=wrong
        )
        assert "V109" in verify_ddg(ddg, raw).codes()


# ---------------------------------------------------------------------------
# verify_schedule (V2xx)
# ---------------------------------------------------------------------------


class TestVerifySchedule:
    def test_clean_schedule(self, case):
        region, machine, schedule = case
        report = verify_schedule(region, machine, schedule)
        assert report.ok and report.codes() == []

    def test_missing_instruction_is_v201(self, vliw_case):
        region, machine, schedule = vliw_case
        corrupted = Schedule(
            region_name=schedule.region_name,
            machine_name=schedule.machine_name,
            ops=dict(schedule.ops),
            comms=list(schedule.comms),
        )
        victim = max(corrupted.ops)
        del corrupted.ops[victim]
        assert "V201" in verify_schedule(region, machine, corrupted).codes()

    def test_unknown_uid_is_v202(self, vliw_case):
        region, machine, schedule = vliw_case
        corrupted = Schedule(
            region_name=schedule.region_name,
            machine_name=schedule.machine_name,
            ops=dict(schedule.ops),
            comms=list(schedule.comms),
        )
        ghost = dataclasses.replace(corrupted.ops[0], uid=10_000)
        corrupted.ops[10_000] = ghost
        assert "V202" in verify_schedule(region, machine, corrupted).codes()

    def test_negative_start_is_v203(self, vliw_case):
        region, machine, schedule = vliw_case
        corrupted = Schedule(
            region_name=schedule.region_name,
            machine_name=schedule.machine_name,
            ops=dict(schedule.ops),
            comms=list(schedule.comms),
        )
        uid = next(iter(corrupted.ops))
        corrupted.ops[uid] = dataclasses.replace(corrupted.ops[uid], start=-2)
        assert "V203" in verify_schedule(region, machine, corrupted).codes()

    def test_invalid_unit_is_v207(self, vliw_case):
        region, machine, schedule = vliw_case
        corrupted = Schedule(
            region_name=schedule.region_name,
            machine_name=schedule.machine_name,
            ops=dict(schedule.ops),
            comms=list(schedule.comms),
        )
        uid = next(
            u for u, op in corrupted.ops.items()
            if op.unit >= 0 and not region.ddg.instruction(u).is_pseudo
        )
        corrupted.ops[uid] = dataclasses.replace(corrupted.ops[uid], unit=99)
        assert "V207" in verify_schedule(region, machine, corrupted).codes()

    def test_pseudo_on_unit_is_v217_warning(self, vliw):
        # fir's region carries live-in pseudo-ops (vvmul's does not).
        region = build_benchmark("fir", vliw).regions[0]
        machine = vliw
        schedule = ConvergentScheduler(seed=0).schedule(region, machine)
        corrupted = Schedule(
            region_name=schedule.region_name,
            machine_name=schedule.machine_name,
            ops=dict(schedule.ops),
            comms=list(schedule.comms),
        )
        uid = next(
            u for u in corrupted.ops if region.ddg.instruction(u).is_pseudo
        )
        corrupted.ops[uid] = dataclasses.replace(corrupted.ops[uid], unit=0)
        report = verify_schedule(region, machine, corrupted)
        assert "V217" in report.codes()
        assert report.ok  # warning severity

    def test_lying_makespan_is_v218_warning(self, vliw_case):
        region, machine, schedule = vliw_case

        class LyingSchedule(Schedule):
            @property
            def makespan(self):
                return super().makespan + 5

        corrupted = LyingSchedule(
            region_name=schedule.region_name,
            machine_name=schedule.machine_name,
            ops=dict(schedule.ops),
            comms=list(schedule.comms),
        )
        report = verify_schedule(region, machine, corrupted)
        assert "V218" in report.codes() and report.ok

    @pytest.mark.parametrize("kind", sorted(CORRUPTION_REGISTRY))
    def test_corruption_triggers_expected_code(self, case, kind):
        region, machine, schedule = case
        hits = 0
        for seed in range(6):
            rng = np.random.default_rng(seed)
            corrupted = corrupt_schedule(schedule, region, machine, kind, rng)
            if corrupted is None:
                continue
            hits += 1
            report = verify_schedule(region, machine, corrupted)
            assert not report.ok, kind
            assert set(report.codes()) & set(EXPECTED_CODES[kind]), (
                kind,
                report.codes(),
            )
        assert hits > 0, f"{kind} never applied to {machine.name} vvmul"

    def test_corruption_never_mutates_input(self, vliw_case):
        region, machine, schedule = vliw_case
        before_ops = dict(schedule.ops)
        before_comms = list(schedule.comms)
        rng = np.random.default_rng(0)
        for kind in sorted(CORRUPTION_REGISTRY):
            corrupt_schedule(schedule, region, machine, kind, rng)
        assert schedule.ops == before_ops
        assert schedule.comms == before_comms
        assert verify_schedule(region, machine, schedule).ok

    def test_unknown_corruption_kind_raises(self, vliw_case):
        region, machine, schedule = vliw_case
        with pytest.raises(KeyError):
            corrupt_schedule(
                schedule, region, machine, "no_such", np.random.default_rng(0)
            )


def _scan_availability(schedule, producer_uid, cluster):
    """Reference availability: scan every transfer for the earliest arrival."""
    op = schedule.ops.get(producer_uid)
    if op is None:
        return None
    if op.cluster == cluster:
        return op.finish
    arrivals = [
        ev.arrival
        for ev in schedule.comms
        if ev.producer_uid == producer_uid and ev.dst == cluster
    ]
    return min(arrivals) if arrivals else None


def _arrival_findings(region, schedule):
    """V208/V210 (code, message) as the per-edge scan reported them."""
    ddg = region.ddg
    found = []
    for edge in ddg.edges():
        if edge.src not in schedule.ops or edge.dst not in schedule.ops:
            continue
        if not (edge.carries_value and ddg.instruction(edge.src).defines_value):
            continue
        dst_op = schedule.ops[edge.dst]
        available = _scan_availability(schedule, edge.src, dst_op.cluster)
        if available is None:
            found.append((
                "V210",
                f"value {edge.src} never reaches cluster {dst_op.cluster}, "
                f"where instruction {edge.dst} reads it",
            ))
        elif dst_op.start < available:
            found.append((
                "V208",
                f"instruction {edge.dst} starts at cycle {dst_op.start} "
                f"but operand {edge.src} arrives at {available}",
            ))
    return found


class TestArrivalIndex:
    """verify_schedule indexes transfer arrivals once per call instead of
    scanning every transfer per value edge; V208/V210 must fire exactly
    where the scan fired them."""

    @staticmethod
    def _remote_fadd(vliw):
        from repro.ir import RegionBuilder
        from repro.schedulers import ListScheduler

        b = RegionBuilder("r")
        x = b.li(1.0)
        y = b.fadd(x, x)
        b.live_out(y)
        region = b.build()
        schedule = ListScheduler().schedule(
            region, vliw, assignment={0: 0, 1: 1, 2: 1}
        )
        return region, schedule

    @staticmethod
    def _arrival_codes(report):
        return [
            (d.code, d.message) for d in report.diagnostics
            if d.code in ("V208", "V210")
        ]

    @pytest.mark.parametrize("late_first", [True, False])
    def test_earlier_of_two_transfers_sets_availability(self, vliw, late_first):
        region, schedule = self._remote_fadd(vliw)
        (early,) = schedule.comms
        late = dataclasses.replace(
            early, issue=early.issue + 3, arrival=early.arrival + 3
        )
        schedule.comms = [late, early] if late_first else [early, late]
        assert verify_schedule(region, vliw, schedule).ok
        for start, expected in (
            (early.arrival, []),
            (
                early.arrival - 1,
                [(
                    "V208",
                    f"instruction 1 starts at cycle {early.arrival - 1} "
                    f"but operand 0 arrives at {early.arrival}",
                )],
            ),
        ):
            ops = dict(schedule.ops)
            ops[1] = dataclasses.replace(ops[1], start=start)
            moved = Schedule(
                region_name=schedule.region_name,
                machine_name=schedule.machine_name,
                ops=ops,
                comms=list(schedule.comms),
            )
            report = verify_schedule(region, vliw, moved)
            # fadd(x, x) reads operand 0 over one edge per use.
            assert set(self._arrival_codes(report)) == set(expected)
            assert self._arrival_codes(report) == _arrival_findings(region, moved)

    def test_value_sent_elsewhere_is_v210(self, vliw):
        region, schedule = self._remote_fadd(vliw)
        (ev,) = schedule.comms
        schedule.comms = [
            dataclasses.replace(
                ev, dst=2, resources=tuple(vliw.comm_resources(0, 2))
            )
        ]
        report = verify_schedule(region, vliw, schedule)
        assert set(self._arrival_codes(report)) == {
            ("V210", "value 0 never reaches cluster 1, where instruction 1 reads it")
        }
        assert self._arrival_codes(report) == _arrival_findings(region, schedule)

    @pytest.mark.parametrize("kind", sorted(CORRUPTION_REGISTRY))
    def test_matches_scan_on_corrupted_schedules(self, case, kind):
        region, machine, schedule = case
        for seed in range(6):
            corrupted = corrupt_schedule(
                schedule, region, machine, kind, np.random.default_rng(seed)
            )
            if corrupted is None:
                continue
            report = verify_schedule(region, machine, corrupted)
            assert self._arrival_codes(report) == _arrival_findings(
                region, corrupted
            )


# ---------------------------------------------------------------------------
# verify_matrix (V3xx)
# ---------------------------------------------------------------------------


class TestVerifyMatrix:
    @pytest.fixture()
    def matrix(self, vliw_case):
        region, machine, _ = vliw_case
        m = PreferenceMatrix.for_region(region.ddg, machine.n_clusters)
        m.normalize()
        return m

    def test_clean_matrix(self, matrix, vliw_case):
        region, _, _ = vliw_case
        assert verify_matrix(matrix, ddg=region.ddg).ok

    @pytest.mark.parametrize(
        "value,code",
        [(np.nan, "V301"), (np.inf, "V302"), (-0.5, "V303"), (2.5, "V304")],
    )
    def test_bad_entry_codes(self, matrix, value, code):
        matrix.data[1, 0, 0] = value
        report = verify_matrix(matrix, check_normalization=False)
        assert code in report.codes()
        assert report.diagnostics[0].uid == 1

    def test_denormalized_row_is_v305(self, matrix):
        matrix.data[2] *= 1.5
        report = verify_matrix(matrix)
        assert report.codes() == ["V305"]
        assert not verify_matrix(matrix, check_normalization=False).diagnostics

    def test_zero_row_is_v306(self, matrix):
        matrix.data[3] = 0.0
        assert "V306" in verify_matrix(matrix).codes()

    def test_shape_mismatch_is_v307(self, matrix):
        other = DataDependenceGraph(name="other")
        other.new_instruction(Opcode.LI, immediate=0.0)
        report = verify_matrix(matrix, ddg=other)
        assert "V307" in report.codes() and report.ok


# ---------------------------------------------------------------------------
# Pass contracts (V4xx)
# ---------------------------------------------------------------------------


class TestPassContracts:
    def test_every_registered_pass_declares_contracts(self):
        for name, factory in PASS_REGISTRY.items():
            contracts = factory().contracts
            assert set(BASE_CONTRACTS) <= set(contracts), name

    def test_multiplicative_passes_declare_respects_squashed(self):
        declared = {
            name
            for name, factory in PASS_REGISTRY.items()
            if "respects_squashed" in factory().contracts
        }
        assert "COMM" not in declared
        assert "PATHPROP" not in declared
        assert {"PLACE", "FIRST", "PATH", "LOAD"} <= declared

    def test_all_registered_passes_are_clean(self):
        reports = verify_pass_contracts(seed=0)
        assert set(reports) == set(PASS_REGISTRY)
        bad = {name: r.codes() for name, r in reports.items() if not r.ok}
        assert not bad, bad

    @pytest.mark.parametrize(
        "kind,codes",
        [
            ("nan", {"V402"}),
            ("negative", {"V403"}),
            ("zero_row", {"V405"}),
            ("raise", {"V401"}),
        ],
    )
    def test_chaos_passes_earn_their_codes(self, kind, codes):
        report = analyze_pass(f"chaos:{kind}", lambda: make_fault(kind))
        assert not report.ok
        assert codes <= set(report.codes()), report.codes()

    def test_resurrecting_pass_earns_v404(self):
        class Resurrector(SchedulingPass):
            name = "RESURRECT"
            contracts = RESPECTS_SQUASHED

            def apply(self, ctx: PassContext) -> None:
                ctx.matrix.data[:] += 0.01
                ctx.matrix.touch()

        report = analyze_pass("resurrect", Resurrector)
        assert "V404" in report.codes()

    def test_nondeterministic_pass_earns_v406(self):
        calls = []

        class Flaky(SchedulingPass):
            name = "FLAKY"

            def apply(self, ctx: PassContext) -> None:
                calls.append(1)
                ctx.matrix.data[:] *= 1.0 + 0.01 * len(calls)
                ctx.matrix.touch()

        report = analyze_pass("flaky", Flaky, fixtures=default_fixtures()[:1])
        assert "V406" in report.codes()

    def test_ddg_mutation_earns_v407(self):
        class Mutator(SchedulingPass):
            name = "MUTATOR"

            def apply(self, ctx: PassContext) -> None:
                ctx.ddg.add_dependence(0, len(ctx.ddg) - 1, latency=0, kind="order")

        report = analyze_pass("mutator", Mutator, fixtures=default_fixtures()[:1])
        assert "V407" in report.codes()


# ---------------------------------------------------------------------------
# Differential campaign
# ---------------------------------------------------------------------------


class TestDifferential:
    def test_campaign_catches_everything(self, vliw):
        regions = [
            r
            for name in ("vvmul", "fir")
            for r in build_benchmark(name, vliw).regions
        ]
        report = run_differential_campaign(vliw, regions, n_trials=24, seed=11)
        assert report.ok
        assert report.n_trials == 24
        assert not report.false_positives
        assert {t.kind for t in report.trials} >= {"early_start", "wrong_latency"}
        assert "corruptions caught: 24/24" in report.render()

    def test_campaign_is_deterministic(self, raw):
        regions = build_benchmark("vvmul", raw).regions
        a = run_differential_campaign(raw, regions, n_trials=12, seed=5)
        b = run_differential_campaign(raw, regions, n_trials=12, seed=5)
        assert [(t.kind, t.codes) for t in a.trials] == [
            (t.kind, t.codes) for t in b.trials
        ]

    def test_campaign_requires_regions(self, vliw):
        with pytest.raises(ValueError):
            run_differential_campaign(vliw, [], n_trials=1)


# ---------------------------------------------------------------------------
# Harness gate
# ---------------------------------------------------------------------------


class _FixedScheduler(Scheduler):
    """Returns a pre-built schedule regardless of input."""

    name = "fixed"

    def __init__(self, schedule):
        self._schedule = schedule

    def schedule(self, region, machine):
        return self._schedule


class TestHarnessGate:
    def test_clean_region_is_verified(self, vliw_case):
        region, machine, _ = vliw_case
        result = run_region(
            region, machine, ConvergentScheduler(seed=0), verify=True
        )
        assert result.ok and result.verified is True
        assert result.diagnostics == []

    def test_ungated_region_has_no_verdict(self, vliw_case):
        region, machine, _ = vliw_case
        result = run_region(region, machine, ConvergentScheduler(seed=0))
        assert result.ok and result.verified is None

    def test_gate_fails_illegal_schedule(self, vliw_case, monkeypatch):
        region, machine, schedule = vliw_case
        corrupted = corrupt_schedule(
            schedule, region, machine, "wrong_latency", np.random.default_rng(1)
        )
        # Neutralize the simulator so the static verifier is the only
        # line of defense being exercised.
        from repro.sim.simulator import SimulationReport

        monkeypatch.setattr(
            "repro.harness.experiment.simulate",
            lambda *a, **k: SimulationReport(ok=True),
        )
        with pytest.raises(VerificationError, match="V205"):
            run_region(
                region, machine, _FixedScheduler(corrupted), verify=True
            )
        result = run_region(
            region,
            machine,
            _FixedScheduler(corrupted),
            verify=True,
            capture_errors=True,
        )
        assert not result.ok
        assert result.verified is False
        assert any(d.startswith("V205") for d in result.diagnostics)
        assert "VerificationError" in result.error

    def test_region_result_round_trips_verifier_fields(self, vliw_case):
        from repro.harness import run_program

        region, machine, _ = vliw_case
        program = build_benchmark("vvmul", machine)
        result = run_program(
            program, machine, ConvergentScheduler(seed=0), verify=True
        )
        data = json.loads(json.dumps(program_result_to_dict(result)))
        back = program_result_from_dict(data)
        assert [r.verified for r in back.regions] == [True]
        assert all(r.diagnostics == [] for r in back.regions)

    def test_chaos_campaign_with_verify_gate(self, vliw):
        regions = build_benchmark("vvmul", vliw).regions
        report = run_campaign(vliw, regions, n_trials=6, seed=2, verify=True)
        assert report.ok
        assert all(o.result.verified is True for o in report.outcomes)


# ---------------------------------------------------------------------------
# Sweep + CLI
# ---------------------------------------------------------------------------


class TestSweep:
    def test_registry_covers_all_schedulers(self):
        registry = scheduler_registry()
        assert set(registry) == {
            "convergent",
            "fallback",
            "pcc",
            "rawcc",
            "single",
            "uas",
        }
        for factory in registry.values():
            assert isinstance(factory(), Scheduler)

    def test_representative_sweep_is_clean(self, vliw, raw):
        report = run_sweep(machines=[vliw, raw], benchmarks=["vvmul"])
        assert report.ok, report.render()
        # Every cell but the single-cluster baseline's two verifies.
        assert len(report.verified) >= 2 * (len(scheduler_registry()) - 1)
        # Only the single-cluster baseline may decline (preplaced ops).
        assert {c.scheduler for c in report.skipped} <= {"single"}
        assert "verification sweep" in report.render()

    def test_sweep_flags_a_broken_scheduler(self, vliw):
        class Broken(Scheduler):
            name = "broken"

            def schedule(self, region, machine):
                good = ConvergentScheduler(seed=0).schedule(region, machine)
                return corrupt_schedule(
                    good, region, machine, "wrong_latency",
                    np.random.default_rng(0),
                )

        import repro.verify.sweep as sweep_mod

        registry = dict(scheduler_registry())
        registry["broken"] = Broken
        original = sweep_mod.scheduler_registry
        try:
            sweep_mod.scheduler_registry = lambda: registry
            report = run_sweep(
                machines=[vliw], benchmarks=["vvmul"], schedulers=["broken"]
            )
        finally:
            sweep_mod.scheduler_registry = original
        assert not report.ok
        assert report.failures[0].report.codes() == ["V205"]

    def test_sweep_records_crashes(self, vliw):
        class Crasher(Scheduler):
            name = "crasher"

            def schedule(self, region, machine):
                raise RuntimeError("kaboom")

        import repro.verify.sweep as sweep_mod

        registry = dict(scheduler_registry())
        registry["crasher"] = Crasher
        original = sweep_mod.scheduler_registry
        try:
            sweep_mod.scheduler_registry = lambda: registry
            report = run_sweep(
                machines=[vliw], benchmarks=["vvmul"], schedulers=["crasher"]
            )
        finally:
            sweep_mod.scheduler_registry = original
        assert not report.ok
        assert "kaboom" in report.failures[0].detail


class TestCLI:
    def test_verify_verb_clean(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "verify.json"
        code = main(
            [
                "verify",
                "--machines",
                "vliw4",
                "--benchmarks",
                "vvmul",
                "--schedulers",
                "convergent,uas,rawcc",
                "--contracts",
                "--differential",
                "6",
                "--json",
                str(out),
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "verification sweep" in captured
        assert "pass contracts: 12 passes analyzed, 0 violating" in captured
        assert "corruptions caught: 6/6" in captured
        payload = json.loads(out.read_text())
        assert {c["status"] for c in payload["sweep"]} == {"verified"}
        assert payload["differential"][0]["ok"] is True

    def test_verify_verb_exits_nonzero_on_error(self, capsys, monkeypatch):
        from repro.cli import main

        class Broken(Scheduler):
            name = "broken"

            def schedule(self, region, machine):
                good = ConvergentScheduler(seed=0).schedule(region, machine)
                return corrupt_schedule(
                    good, region, machine, "double_book",
                    np.random.default_rng(0),
                )

        import repro.verify.sweep as sweep_mod

        registry = dict(scheduler_registry())
        registry["broken"] = Broken
        monkeypatch.setattr(sweep_mod, "scheduler_registry", lambda: registry)
        code = main(
            [
                "verify",
                "--machines",
                "vliw4",
                "--benchmarks",
                "vvmul",
                "--schedulers",
                "broken",
            ]
        )
        assert code == 1
        assert "V206" in capsys.readouterr().out

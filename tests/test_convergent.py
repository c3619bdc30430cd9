"""Unit tests for the convergent scheduler driver."""

import pytest

from repro.core import (
    ConvergentScheduler,
    RAW_SEQUENCE,
    TUNED_VLIW_SEQUENCE,
    VLIW_SEQUENCE,
    build_sequence,
    make_pass,
    sequence_for_machine,
)
from repro.core.passes import PASS_REGISTRY, Noise
from repro.sim import simulate

from .conftest import build_dot_region


class TestSequences:
    def test_published_raw_sequence_matches_table1a(self):
        assert tuple(RAW_SEQUENCE) == (
            "INITTIME", "PLACEPROP", "LOAD", "PLACE", "PATH", "PATHPROP",
            "LEVEL", "PATHPROP", "COMM", "PATHPROP", "EMPHCP",
        )

    def test_published_vliw_sequence_matches_table1b(self):
        assert tuple(VLIW_SEQUENCE) == (
            "INITTIME", "NOISE", "FIRST", "PATH", "COMM", "PLACE",
            "PLACEPROP", "COMM", "EMPHCP",
        )

    def test_sequence_lookup_by_machine_name(self):
        assert sequence_for_machine("raw4x4", paper=True) == RAW_SEQUENCE
        assert sequence_for_machine("vliw4", paper=True) == VLIW_SEQUENCE
        assert sequence_for_machine("vliw4") == TUNED_VLIW_SEQUENCE

    def test_unknown_machine_rejected(self):
        with pytest.raises(KeyError):
            sequence_for_machine("tpu")

    def test_build_sequence_instantiates_every_pass(self):
        passes = build_sequence(RAW_SEQUENCE)
        assert [p.name for p in passes] == list(RAW_SEQUENCE)

    def test_every_registry_pass_constructs(self):
        for name in PASS_REGISTRY:
            assert make_pass(name).name == name

    def test_make_pass_with_arguments(self):
        p = make_pass("LEVEL(stride=2, granularity=1)")
        assert p.stride == 2 and p.granularity == 1
        n = make_pass("NOISE(amount=0.25)")
        assert n.amount == 0.25

    def test_make_pass_malformed_spec(self):
        with pytest.raises(ValueError):
            make_pass("LEVEL(stride=2")
        with pytest.raises(ValueError):
            make_pass("LEVEL(stride)")

    def test_make_pass_unknown_name(self):
        with pytest.raises(KeyError, match="unknown pass"):
            make_pass("WARP")


class TestDriver:
    def test_valid_schedule_on_vliw(self, vliw4, dot_region):
        result = ConvergentScheduler(check_invariants=True).converge(dot_region, vliw4)
        assert simulate(dot_region, vliw4, result.schedule).ok

    def test_valid_schedule_on_raw(self, raw4, jacobi_raw):
        result = ConvergentScheduler(check_invariants=True).converge(jacobi_raw, raw4)
        assert simulate(jacobi_raw, raw4, result.schedule).ok

    def test_assignment_respects_preplacement(self, raw4, jacobi_raw):
        result = ConvergentScheduler().converge(jacobi_raw, raw4)
        for inst in jacobi_raw.ddg:
            if inst.preplaced:
                assert result.assignment[inst.uid] == inst.home_cluster

    def test_deterministic_given_seed(self, vliw4):
        r1 = ConvergentScheduler(seed=5).converge(build_dot_region(), vliw4)
        r2 = ConvergentScheduler(seed=5).converge(build_dot_region(), vliw4)
        assert r1.assignment == r2.assignment
        assert r1.schedule.makespan == r2.schedule.makespan

    def test_different_seeds_may_differ_but_stay_valid(self, vliw4):
        region = build_dot_region(n=8)
        for seed in range(3):
            result = ConvergentScheduler(seed=seed).converge(region, vliw4)
            assert simulate(region, vliw4, result.schedule).ok

    def test_priorities_used_on_vliw_not_raw(self, vliw4, raw4):
        region_v = build_dot_region()
        result_v = ConvergentScheduler().converge(region_v, vliw4)
        assert result_v.priorities is not None
        region_r = build_dot_region()
        result_r = ConvergentScheduler().converge(region_r, raw4)
        assert result_r.priorities is None

    def test_use_preferred_times_override(self, raw4):
        result = ConvergentScheduler(use_preferred_times=True).converge(
            build_dot_region(), raw4
        )
        assert result.priorities is not None

    def test_custom_pass_objects_accepted(self, vliw4):
        scheduler = ConvergentScheduler(
            passes=["INITTIME", Noise(amount=0.5), "COMM", "EMPHCP"]
        )
        result = scheduler.converge(build_dot_region(), vliw4)
        assert simulate(build_dot_region(), vliw4, result.schedule).ok

    def test_trace_records_every_pass(self, vliw4, dot_region):
        scheduler = ConvergentScheduler()
        result = scheduler.converge(dot_region, vliw4)
        names = [r.pass_name for r in result.trace.records]
        base_names = [spec.partition("(")[0] for spec in TUNED_VLIW_SEQUENCE]
        assert names == base_names

    def test_invariants_after_every_pass(self, vliw4, mxm_vliw):
        # check_invariants=True raises inside converge() on violation.
        ConvergentScheduler(check_invariants=True).converge(mxm_vliw, vliw4)

    def test_snapshots_kept_when_requested(self, vliw4, dot_region):
        result = ConvergentScheduler(keep_snapshots=True).converge(dot_region, vliw4)
        assert result.trace.records[0].pass_name == "initial"
        assert all(
            r.snapshot is not None for r in result.trace.records
        )

    def test_scheduler_protocol_returns_schedule(self, vliw4, dot_region):
        schedule = ConvergentScheduler().schedule(dot_region, vliw4)
        assert schedule.scheduler_name == "convergent"


class TestIterativeApplication:
    """The paper's iterative-application feature: a sequence may run
    multiple times, providing feedback between phases."""

    def test_invalid_iterations_rejected(self):
        with pytest.raises(ValueError):
            ConvergentScheduler(iterations=0)

    def test_two_rounds_still_valid(self, vliw4):
        region = build_dot_region(n=8)
        result = ConvergentScheduler(iterations=2, check_invariants=True).converge(
            region, vliw4
        )
        assert simulate(region, vliw4, result.schedule).ok

    def test_inittime_runs_once(self, vliw4, dot_region):
        result = ConvergentScheduler(iterations=3).converge(dot_region, vliw4)
        names = [r.pass_name for r in result.trace.records]
        assert names.count("INITTIME") == 1

    def test_extra_rounds_reduce_churn(self, vliw4, mxm_vliw):
        result = ConvergentScheduler(iterations=2).converge(mxm_vliw, vliw4)
        series = result.trace.series()
        rounds = len(series) // 2
        first_round_peak = max(series[:rounds])
        second_round_peak = max(series[rounds:])
        assert second_round_peak <= first_round_peak

    def test_iterated_schedule_not_much_worse(self, vliw4):
        one = ConvergentScheduler(iterations=1).schedule(build_dot_region(n=12), vliw4)
        two = ConvergentScheduler(iterations=2).schedule(build_dot_region(n=12), vliw4)
        assert two.makespan <= one.makespan * 1.25


class TestGenericMachineFallback:
    def test_custom_machine_gets_generic_sequence(self):
        """A machine outside the raw*/vliw* families schedules with the
        generic sequence instead of raising."""
        from repro.core.sequences import GENERIC_SEQUENCE
        from repro.ir.opcode import FuncClass, LatencyModel
        from repro.machine.fu import Cluster, FunctionalUnit
        from repro.machine.machine import Machine

        class TinyFabric(Machine):
            memory_affinity = "soft"
            remote_mem_penalty = 0

            def __init__(self):
                classes = frozenset(
                    {FuncClass.IALU, FuncClass.IMUL, FuncClass.FPU,
                     FuncClass.MEM, FuncClass.CONST}
                )
                clusters = [
                    Cluster(index=i, units=(FunctionalUnit("u", classes),))
                    for i in range(2)
                ]
                super().__init__(clusters, LatencyModel(), "fabric2")

            def comm_latency(self, src, dst):
                return 0 if src == dst else 2

            def comm_resources(self, src, dst):
                return () if src == dst else (("bus", src, dst),)

            def distance(self, src, dst):
                return 0 if src == dst else 1

        machine = TinyFabric()
        region = build_dot_region(n=4, banks=2)
        result = ConvergentScheduler().converge(region, machine)
        assert simulate(region, machine, result.schedule).ok
        assert len(result.trace.records) == len(GENERIC_SEQUENCE)


class TestProductionPathMatchesOracle:
    """``converge`` as compiles run it — under the PassGuard, with the
    guard's health scan and post-pass normalize and the convergence
    trace — against a plain loop of each pass's scalar
    ``_reference_update`` and ``normalize()``: the final matrices must be
    byte-identical, so nothing ``converge`` adds around the kernels moves
    a single bit."""

    @pytest.mark.parametrize("bench", ["cholesky", "vvmul"])
    @pytest.mark.parametrize(
        "machine_spec,sequence",
        [("raw4", RAW_SEQUENCE), ("vliw4", TUNED_VLIW_SEQUENCE)],
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_converged_matrix_bitwise_equals_reference_loop(
        self, bench, machine_spec, sequence, seed
    ):
        from repro.core.passes import PassContext
        from repro.core.weights import PreferenceMatrix
        from repro.machine import machine_from_spec
        from repro.workloads import build_benchmark

        machine = machine_from_spec(machine_spec)
        program = build_benchmark(bench, machine)
        for region in program.regions:
            scheduler = ConvergentScheduler(passes=list(sequence), seed=seed)
            result = scheduler.converge(region, machine)
            assert not result.degraded

            oracle = PreferenceMatrix.for_region(region.ddg, machine.n_clusters)
            ctx = PassContext(
                ddg=region.ddg,
                machine=machine,
                matrix=oracle,
                rng=scheduler._region_rng(region),
            )
            for spec in sequence:
                make_pass(spec)._reference_update(ctx)
                oracle.normalize()
            assert result.matrix.data.tobytes() == oracle.data.tobytes(), (
                f"{bench} on {machine_spec}: converge diverged from the oracle"
            )

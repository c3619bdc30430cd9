"""Unit tests for the benchmark kernel generators."""

import pytest

from repro.analysis import graph_shape
from repro.ir import Opcode
from repro.workloads import (
    KERNELS,
    LOW_PREPLACEMENT,
    RAW_SUITE,
    VLIW_SUITE,
    build_benchmark,
    suite_for_machine,
)


class TestSuiteDefinitions:
    def test_raw_suite_matches_table2(self):
        assert RAW_SUITE == (
            "cholesky", "tomcatv", "vpenta", "mxm", "fpppp-kernel",
            "sha", "swim", "jacobi", "life",
        )

    def test_vliw_suite_matches_figure8(self):
        assert VLIW_SUITE == (
            "vvmul", "rbsorf", "yuv", "tomcatv", "mxm", "fir", "cholesky",
        )

    def test_every_suite_member_has_a_kernel(self):
        for name in RAW_SUITE + VLIW_SUITE:
            assert name in KERNELS

    def test_suite_for_machine(self, raw4, vliw4):
        assert suite_for_machine(raw4) == RAW_SUITE
        assert suite_for_machine(vliw4) == VLIW_SUITE

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            build_benchmark("doom")


class TestGraphValidity:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernel_builds_valid_graph(self, name):
        program = build_benchmark(name)
        for region in program.regions:
            region.ddg.validate()
            assert len(region.ddg) > 0

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_congruence_preplaces_memory(self, name, raw16):
        program = build_benchmark(name, raw16)
        region = program.regions[0]
        for inst in region.ddg:
            if inst.is_memory and inst.bank is not None:
                assert inst.home_cluster == raw16.bank_home(inst.bank)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernels_are_deterministic(self, name):
        a = build_benchmark(name)
        b = build_benchmark(name)
        assert len(a.regions[0].ddg) == len(b.regions[0].ddg)
        assert a.regions[0].ddg.edge_count() == b.regions[0].ddg.edge_count()


class TestGraphShapes:
    def test_dense_kernels_are_fat(self, raw16):
        for name in ("mxm", "jacobi", "life", "swim", "vpenta"):
            shape = graph_shape(build_benchmark(name, raw16).regions[0].ddg)
            assert shape.is_fat, f"{name} should be a fat graph"

    def test_hard_kernels_are_preplacement_poor(self, raw16):
        fat_fraction = graph_shape(
            build_benchmark("mxm", raw16).regions[0].ddg
        ).preplaced_fraction
        for name in LOW_PREPLACEMENT:
            shape = graph_shape(build_benchmark(name, raw16).regions[0].ddg)
            assert shape.preplaced_fraction < fat_fraction / 2

    def test_fpppp_has_limited_parallelism(self, raw16):
        fpppp = graph_shape(build_benchmark("fpppp-kernel", raw16).regions[0].ddg)
        mxm = graph_shape(build_benchmark("mxm", raw16).regions[0].ddg)
        assert fpppp.parallelism < mxm.parallelism

    def test_unroll_scales_size(self):
        small = build_benchmark("jacobi", unroll=4)
        large = build_benchmark("jacobi", unroll=16)
        assert len(large.regions[0].ddg) > 3 * len(small.regions[0].ddg)


class TestKernelSemantics:
    def test_mxm_has_dot_product_structure(self):
        program = build_benchmark("mxm", unroll=2, depth=4)
        ddg = program.regions[0].ddg
        fmuls = [i for i in ddg if i.opcode is Opcode.FMUL]
        stores = [i for i in ddg if i.opcode is Opcode.STORE]
        assert len(fmuls) == 2 * 4
        assert len(stores) == 2

    def test_cholesky_contains_sqrt_and_div(self):
        ddg = build_benchmark("cholesky").regions[0].ddg
        opcodes = {i.opcode for i in ddg}
        assert Opcode.FSQRT in opcodes
        assert Opcode.FDIV in opcodes

    def test_sha_is_integer_code(self):
        ddg = build_benchmark("sha").regions[0].ddg
        assert not any(
            i.opcode in (Opcode.FADD, Opcode.FMUL, Opcode.FSUB) for i in ddg
        )

    def test_fpppp_is_nearly_memory_free(self):
        ddg = build_benchmark("fpppp-kernel").regions[0].ddg
        memory = sum(1 for i in ddg if i.is_memory)
        assert memory == 0

    def test_yuv_three_outputs_per_pixel(self):
        ddg = build_benchmark("yuv", unroll=2).regions[0].ddg
        stores = [i for i in ddg if i.opcode is Opcode.STORE]
        assert len(stores) == 6

    def test_fir_taps_are_live_ins(self):
        program = build_benchmark("fir", taps=8)
        assert len(program.regions[0].live_ins()) == 8

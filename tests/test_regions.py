"""Unit tests for regions and programs."""

import pytest

from repro.ir import Program, Region, RegionBuilder, RegionKind
from repro.ir.ddg import DataDependenceGraph


def small_region(name="r", trip=1):
    b = RegionBuilder(name, trip_count=trip)
    x = b.live_in(name="x")
    b.live_out(b.fadd(x, b.li(1.0)))
    return b.build()


class TestRegion:
    def test_invalid_trip_count(self):
        with pytest.raises(ValueError):
            Region(name="r", ddg=DataDependenceGraph(), trip_count=0)

    def test_default_kind_is_trace(self):
        assert small_region().kind is RegionKind.TRACE

    def test_live_in_out_and_real_partition(self):
        region = small_region()
        uids = set(range(len(region.ddg)))
        partition = (
            set(region.live_ins()) | set(region.live_outs()) | set(region.real_instructions())
        )
        assert partition == uids
        assert len(region.real_instructions()) == 2

    def test_len_matches_ddg(self):
        region = small_region()
        assert len(region) == len(region.ddg)

    def test_region_kinds_enumerate_paper_units(self):
        names = {k.value for k in RegionKind}
        assert {"basic_block", "trace", "superblock", "hyperblock", "treegion"} == names


class TestProgram:
    def test_add_returns_region(self):
        program = Program("p")
        region = small_region()
        assert program.add(region) is region
        assert program.regions == [region]

    def test_total_instructions(self):
        program = Program("p")
        program.add(small_region("a"))
        program.add(small_region("b"))
        assert program.total_instructions() == 2 * len(small_region())

    def test_empty_program(self):
        assert Program("p").total_instructions() == 0

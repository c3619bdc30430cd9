"""Unit tests for congruence analysis / preplacement binding."""


from repro.ir import RegionBuilder
from repro.ir.regions import Program
from repro.machine import RawMachine
from repro.workloads import apply_congruence, clear_preplacement


def two_region_program():
    b1 = RegionBuilder("r1")
    x = b1.load(bank=5, array="a")
    b1.live_out(x, name="x")
    b2 = RegionBuilder("r2")
    y = b2.live_in(name="x")
    b2.store(y, bank=2, array="out")
    return Program("p", [b1.build(), b2.build()])


class TestBankBinding:
    def test_memory_homes_follow_bank_interleave(self, vliw4):
        program = two_region_program()
        apply_congruence(program, vliw4)
        load = program.regions[0].ddg.instruction(0)
        assert load.home_cluster == 5 % 4

    def test_raw_binding_differs_by_mesh_size(self):
        p1 = apply_congruence(two_region_program(), RawMachine(2, 2))
        p2 = apply_congruence(two_region_program(), RawMachine(4, 4))
        assert p1.regions[0].ddg.instruction(0).home_cluster == 1  # 5 % 4
        assert p2.regions[0].ddg.instruction(0).home_cluster == 5  # 5 % 16

    def test_non_memory_untouched(self, vliw4):
        b = RegionBuilder("r")
        x = b.li(1.0)
        b.live_out(b.fadd(x, x))
        program = Program("p", [b.build()])
        apply_congruence(program, vliw4)
        assert program.regions[0].ddg.instruction(x.uid).home_cluster is None


class TestCrossRegionValues:
    def test_vliw_live_values_go_to_first_cluster(self, vliw4):
        program = two_region_program()
        apply_congruence(program, vliw4)
        region2 = program.regions[1]
        live_in = region2.ddg.instruction(region2.live_ins()[0])
        assert live_in.home_cluster == 0
        region1 = program.regions[0]
        live_out = region1.ddg.instruction(region1.live_outs()[0])
        assert live_out.home_cluster == 0

    def test_raw_live_values_round_robin(self, raw4):
        b = RegionBuilder("r")
        ins = [b.live_in(name=f"v{i}") for i in range(6)]
        for v in ins:
            b.live_out(v)
        program = Program("p", [b.build()])
        apply_congruence(program, raw4)
        homes = [
            program.regions[0].ddg.instruction(u).home_cluster
            for u in program.regions[0].live_ins()
        ]
        assert set(homes) == {0, 1, 2, 3}  # spread over all tiles

    def test_explicit_home_preserved(self, vliw4):
        b = RegionBuilder("r")
        x = b.live_in(name="x", home_cluster=3)
        b.live_out(x)
        program = Program("p", [b.build()])
        apply_congruence(program, vliw4)
        assert program.regions[0].ddg.instruction(x.uid).home_cluster == 3


class TestClearPreplacement:
    def test_clears_every_home(self, vliw4):
        program = two_region_program()
        apply_congruence(program, vliw4)
        clear_preplacement(program)
        for region in program.regions:
            assert region.ddg.preplaced() == []

    def test_returns_program_for_chaining(self, vliw4):
        program = two_region_program()
        assert apply_congruence(program, vliw4) is program
        assert clear_preplacement(program) is program

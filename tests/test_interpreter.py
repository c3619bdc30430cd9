"""Unit tests for the reference dataflow interpreter."""



from repro.ir import Opcode, RegionBuilder
from repro.sim.interpreter import (
    evaluate_instruction,
    reference_values,
    synthetic_load_value,
)


class TestEvaluate:
    def test_arithmetic(self):
        assert evaluate_instruction(Opcode.ADD, [2.0, 3.0]) == 5.0
        assert evaluate_instruction(Opcode.FSUB, [2.0, 3.0]) == -1.0
        assert evaluate_instruction(Opcode.FMUL, [2.0, 3.0]) == 6.0

    def test_division_guards_zero(self):
        assert evaluate_instruction(Opcode.FDIV, [1.0, 0.0]) == 0.0
        assert evaluate_instruction(Opcode.DIV, [6.0, 2.0]) == 3.0

    def test_bitwise(self):
        assert evaluate_instruction(Opcode.AND, [6.0, 3.0]) == 2.0
        assert evaluate_instruction(Opcode.OR, [4.0, 1.0]) == 5.0
        assert evaluate_instruction(Opcode.XOR, [6.0, 3.0]) == 5.0

    def test_shifts_bounded(self):
        assert evaluate_instruction(Opcode.SHL, [1.0, 4.0]) == 16.0
        assert evaluate_instruction(Opcode.SHR, [16.0, 4.0]) == 1.0
        # Shift amounts reduce mod 16 to stay bounded.
        assert evaluate_instruction(Opcode.SHL, [1.0, 17.0]) == 2.0

    def test_comparisons(self):
        assert evaluate_instruction(Opcode.SLT, [1.0, 2.0]) == 1.0
        assert evaluate_instruction(Opcode.SLT, [3.0, 2.0]) == 0.0
        assert evaluate_instruction(Opcode.FCMP, [1.0, 2.0]) == 1.0

    def test_sqrt_of_negative_uses_abs(self):
        assert evaluate_instruction(Opcode.FSQRT, [-4.0]) == 2.0

    def test_li_uses_immediate(self):
        assert evaluate_instruction(Opcode.LI, [], immediate=7.5) == 7.5
        assert evaluate_instruction(Opcode.LI, []) == 0.0

    def test_load_is_deterministic_per_identity(self):
        assert synthetic_load_value(3, 1) == synthetic_load_value(3, 1)
        assert synthetic_load_value(3, 1) != synthetic_load_value(4, 1)

    def test_passthrough_ops(self):
        assert evaluate_instruction(Opcode.MOVE, [9.0]) == 9.0
        assert evaluate_instruction(Opcode.STORE, [9.0]) == 9.0
        assert evaluate_instruction(Opcode.LIVE_OUT, [9.0]) == 9.0


class TestReferenceValues:
    def test_evaluates_whole_region(self):
        b = RegionBuilder("r")
        x = b.li(2.0)
        y = b.li(3.0)
        z = b.fmul(x, y)
        w = b.fadd(z, x)
        b.live_out(w)
        region = b.build()
        values = reference_values(region.ddg)
        assert values[z.uid] == 6.0
        assert values[w.uid] == 8.0

    def test_every_instruction_valued(self):
        from .conftest import build_dot_region

        region = build_dot_region()
        values = reference_values(region.ddg)
        assert set(values) == set(range(len(region.ddg)))

    def test_live_in_deterministic(self):
        b = RegionBuilder("r")
        x = b.live_in(name="x")
        b.live_out(x)
        region = b.build()
        v1 = reference_values(region.ddg)
        v2 = reference_values(region.ddg)
        assert v1 == v2

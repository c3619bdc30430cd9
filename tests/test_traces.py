"""Unit tests for trace formation and trace-to-region lowering."""


from repro.core import ConvergentScheduler
from repro.ir import ControlFlowGraph, Opcode, Stmt, form_traces, program_from_cfg
from repro.sim import simulate
from repro.workloads import apply_congruence

from .test_cfg import diamond_cfg


class TestFormTraces:
    def test_every_block_in_exactly_one_trace(self):
        cfg = diamond_cfg()
        cfg.propagate_frequencies(100)
        traces = form_traces(cfg)
        flat = [b for t in traces for b in t]
        assert sorted(flat) == sorted(b.name for b in cfg.blocks())

    def test_hot_path_forms_the_main_trace(self):
        cfg = diamond_cfg()
        cfg.propagate_frequencies(100)
        traces = form_traces(cfg)
        main = traces[0]
        # The 90% side goes through entry->then->join.
        assert main == ["entry", "then", "join"]
        assert ["else"] in traces

    def test_straight_line_is_one_trace(self):
        cfg = ControlFlowGraph("line", inputs=set())
        for name in ("entry", "a", "b"):
            block = cfg.add_block(name)
            block.add(Stmt(f"v{name}", Opcode.LI, immediate=1.0))
        cfg.add_edge("entry", "a")
        cfg.add_edge("a", "b")
        cfg.propagate_frequencies()
        assert form_traces(cfg) == [["entry", "a", "b"]]

    def test_even_branch_still_covers_all_blocks(self):
        cfg = diamond_cfg()
        # Make both sides equally likely: selection is deterministic
        # regardless (ties break by name).
        cfg._succ["entry"] = []
        cfg._pred["then"] = []
        cfg._pred["else"] = []
        cfg.add_edge("entry", "then", 0.5)
        cfg.add_edge("entry", "else", 0.5)
        cfg.propagate_frequencies(10)
        traces = form_traces(cfg)
        flat = sorted(b for t in traces for b in t)
        assert flat == ["else", "entry", "join", "then"]


class TestLowering:
    def lowered(self, machine=None):
        cfg = diamond_cfg()
        cfg.propagate_frequencies(100)
        program = program_from_cfg(cfg)
        if machine is not None:
            apply_congruence(program, machine)
        return program

    def test_program_has_one_region_per_trace(self):
        program = self.lowered()
        assert len(program.regions) == 2

    def test_main_trace_contents(self):
        program = self.lowered()
        main = program.regions[0]
        opcodes = [i.opcode for i in main.ddg if not i.is_pseudo]
        assert Opcode.STORE in opcodes
        assert Opcode.FADD in opcodes  # the hot 'then' side
        assert Opcode.FSUB not in opcodes  # cold side is its own region

    def test_input_variable_becomes_live_in(self):
        program = self.lowered()
        main = program.regions[0]
        live_in_names = {
            main.ddg.instruction(u).name for u in main.live_ins()
        }
        assert "a" in live_in_names

    def test_escaping_value_becomes_live_out(self):
        # In the cold trace ('else'), y escapes to the off-trace join.
        program = self.lowered()
        cold = next(r for r in program.regions if "else" in r.name)
        names = {cold.ddg.instruction(u).name for u in cold.live_outs()}
        assert "y" in names

    def test_trip_count_reflects_frequency(self):
        program = self.lowered()
        main = program.regions[0]
        assert main.trip_count == 100

    def test_regions_validate(self):
        for region in self.lowered().regions:
            region.ddg.validate()

    def test_end_to_end_schedules_and_simulates(self, vliw4):
        program = self.lowered(machine=vliw4)
        for region in program.regions:
            schedule = ConvergentScheduler().schedule(region, vliw4)
            assert simulate(region, vliw4, schedule).ok

    def test_loop_body_region(self, raw4):
        cfg = ControlFlowGraph("loop", inputs={"seed"})
        entry = cfg.add_block("entry")
        entry.add(Stmt("acc", Opcode.MOVE, ("seed",)))
        body = cfg.add_block("body")
        body.add(Stmt("x", Opcode.LOAD, (), bank=1, array="v"))
        body.add(Stmt("acc2", Opcode.FADD, ("acc", "x")))
        body.add(Stmt("acc", Opcode.MOVE, ("acc2",)))
        exit_b = cfg.add_block("exit")
        exit_b.add(Stmt(None, Opcode.STORE, ("acc",), bank=2, array="out"))
        cfg.add_edge("entry", "body")
        cfg.add_edge("body", "body", 0.95)
        cfg.add_edge("body", "exit", 0.05)
        cfg.propagate_frequencies(1.0)
        program = program_from_cfg(cfg)
        apply_congruence(program, raw4)
        for region in program.regions:
            schedule = ConvergentScheduler().schedule(region, raw4)
            assert simulate(region, raw4, schedule).ok
        # The loop-carried variable is live across regions on Raw, so
        # its live-in/out pseudos became preplaced.
        loopy = program.regions[0]
        assert any(
            loopy.ddg.instruction(u).preplaced for u in loopy.live_ins()
        ) or any(
            loopy.ddg.instruction(u).preplaced for u in loopy.live_outs()
        )

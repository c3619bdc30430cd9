"""Unit tests for Raw static-network switch code generation."""


from repro.core import ConvergentScheduler
from repro.ir import RegionBuilder
from repro.machine.switchgen import (
    Port,
    generate_switch_code,
    render_switch_program,
    validate_switch_code,
)
from repro.schedulers import ListScheduler, UnifiedAssignAndSchedule
from repro.workloads import build_benchmark


def one_transfer_schedule(machine, src, dst):
    b = RegionBuilder("r")
    x = b.li(1.0)
    y = b.fadd(x, x)
    b.live_out(y)
    region = b.build()
    assignment = {x.uid: src, y.uid: dst, 2: dst}
    schedule = ListScheduler().schedule(region, machine, assignment=assignment)
    return region, schedule


class TestGeneration:
    def test_neighbour_transfer_ops(self, raw16):
        _, schedule = one_transfer_schedule(raw16, 0, 1)
        programs = generate_switch_code(schedule, raw16)
        (ev,) = schedule.comms
        # Source injects, destination ejects; no intermediate hops.
        (src_op,) = programs[0]
        (dst_op,) = programs[1]
        assert src_op.source is Port.PROC and src_op.sink is Port.EAST
        assert dst_op.source is Port.WEST and dst_op.sink is Port.PROC
        assert dst_op.cycle == src_op.cycle + 1
        assert src_op.cycle == ev.issue

    def test_corner_to_corner_route(self, raw16):
        _, schedule = one_transfer_schedule(raw16, 0, 15)
        programs = generate_switch_code(schedule, raw16)
        hops = [op for ops in programs.values() for op in ops]
        assert len(hops) == 7  # 6 hops + both endpoints share tiles
        assert validate_switch_code(programs, schedule, raw16) == []

    def test_forwarding_tiles_route_through(self, raw16):
        _, schedule = one_transfer_schedule(raw16, 0, 2)
        programs = generate_switch_code(schedule, raw16)
        (mid,) = programs[1]
        assert mid.source is Port.WEST and mid.sink is Port.EAST

    def test_empty_schedule(self, raw16):
        from repro.schedulers.schedule import Schedule

        programs = generate_switch_code(Schedule("r", raw16.name), raw16)
        assert all(ops == [] for ops in programs.values())

    def test_render_contains_route_lines(self, raw16):
        _, schedule = one_transfer_schedule(raw16, 0, 1)
        programs = generate_switch_code(schedule, raw16)
        text = render_switch_program(0, programs[0])
        assert "route" in text and "proc" in text


class TestValidation:
    def test_real_schedules_generate_clean_code(self, raw16):
        region = build_benchmark("jacobi", raw16).regions[0]
        for scheduler in (ConvergentScheduler(), UnifiedAssignAndSchedule()):
            schedule = scheduler.schedule(region, raw16)
            programs = generate_switch_code(schedule, raw16)
            assert validate_switch_code(programs, schedule, raw16) == []

    def test_detects_missing_transfer(self, raw16):
        _, schedule = one_transfer_schedule(raw16, 0, 5)
        programs = generate_switch_code(schedule, raw16)
        for ops in programs.values():
            ops.clear()
        errors = validate_switch_code(programs, schedule, raw16)
        assert any("no switch code" in e for e in errors)

    def test_detects_broken_hop_chain(self, raw16):
        _, schedule = one_transfer_schedule(raw16, 0, 2)
        programs = generate_switch_code(schedule, raw16)
        import dataclasses

        programs[1][0] = dataclasses.replace(programs[1][0], cycle=99)
        errors = validate_switch_code(programs, schedule, raw16)
        assert any("consecutive" in e for e in errors)

    def test_detects_port_conflict(self, raw16):
        _, schedule = one_transfer_schedule(raw16, 0, 2)
        programs = generate_switch_code(schedule, raw16)
        import dataclasses

        # Duplicate the injection op under a different transfer id: two
        # words now leave tile 0's east port in the same cycle.
        clash = dataclasses.replace(programs[0][0], transfer=99)
        programs[0].append(clash)
        errors = validate_switch_code(programs, schedule, raw16)
        assert any("carries two" in e for e in errors)

    def test_port_sharing_without_conflict_is_legal(self, raw16):
        """Distinct ports in one cycle = one wide switch instruction."""
        region = build_benchmark("life", raw16).regions[0]
        schedule = UnifiedAssignAndSchedule().schedule(region, raw16)
        programs = generate_switch_code(schedule, raw16)
        assert validate_switch_code(programs, schedule, raw16) == []

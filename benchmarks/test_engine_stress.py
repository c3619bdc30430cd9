"""Engine stress test: 200 chaotic regions through the worker pool.

The equivalence suite (``tests/test_engine.py``) proves the parallel
path cycle-identical on the paper workloads; this benchmark attacks the
engine's *robustness* claims at scale:

* a **200-region** synthetic program — far more tasks than workers —
  fans out over a 4-worker pool and comes back with exactly one result
  per region, in region order (**zero lost regions**);
* the scheduler under test is deliberately hostile: seeded chaos passes
  (``repro.faults``) inside a guarded :class:`ConvergentScheduler`,
  wrapped in a :class:`FallbackChain`, so tasks exercise guard
  rollback and chain degradation *inside worker processes*;
* the pool neither hangs nor breaks (the run completes with
  ``pool_breaks == 0``), and the parallel results are identical to the
  serial ones, region for region.
"""

from __future__ import annotations

import copy
import os

import numpy as np
import pytest

from repro.core import ConvergentScheduler
from repro.core.sequences import sequence_for_machine
from repro.engine import CompilationEngine
from repro.faults import make_fault
from repro.harness import run_program
from repro.harness.results import program_result_to_dict
from repro.ir import RegionBuilder
from repro.ir.regions import Program
from repro.machine import ClusteredVLIW
from repro.observability.metrics import MetricsRegistry
from repro.schedulers import (
    FallbackChain,
    SingleClusterScheduler,
    UnifiedAssignAndSchedule,
)

from .conftest import print_report

N_REGIONS = 200
_ARITH = ["fadd", "fmul", "fsub", "add"]

_PARENT_PID = os.getpid()


class KamikazeScheduler(UnifiedAssignAndSchedule):
    """Hard-kills its worker process on one specific region.

    The pid guard means the kill only fires inside a pool worker — the
    parent's inline retry of the same task schedules normally, which is
    exactly the degradation path under test."""

    def schedule(self, region, machine):
        """Schedule ``region``; die first if this is the marked region
        in a worker process."""
        if region.name.endswith("_r13") and os.getpid() != _PARENT_PID:
            os._exit(1)
        return super().schedule(region, machine)


def _chaotic_program(n_regions=N_REGIONS, seed=7):
    """A program of ``n_regions`` small, distinct synthetic regions."""
    rng = np.random.default_rng(seed)
    program = Program(f"stress{n_regions}")
    for r in range(n_regions):
        b = RegionBuilder(f"stress_r{r}")
        values = [b.li(float(rng.integers(1, 9))) for _ in range(2)]
        for _ in range(int(rng.integers(6, 14))):
            op = _ARITH[int(rng.integers(len(_ARITH)))]
            x = values[int(rng.integers(len(values)))]
            y = values[int(rng.integers(len(values)))]
            values.append(getattr(b, op)(x, y))
        b.live_out(values[-1])
        program.add(b.build())
    return program


def _chaotic_convergent(machine, guard=True, raise_always=False, seed=11):
    """A convergent scheduler whose sequence carries live chaos passes."""
    passes = list(sequence_for_machine(machine.name))
    rng = np.random.default_rng(seed)
    kinds = ["raise"] if raise_always else ["nan", "negative", "zero_row"]
    for kind in kinds:
        passes.insert(int(rng.integers(0, len(passes) + 1)), make_fault(kind))
    return ConvergentScheduler(passes=passes, seed=seed, guard=guard)


def _chaos_chain(machine, guard=True, raise_always=False, seed=11):
    """A fallback chain whose first member carries live chaos passes."""
    return FallbackChain(
        [
            _chaotic_convergent(machine, guard, raise_always, seed),
            UnifiedAssignAndSchedule(),
            SingleClusterScheduler(),
        ],
        check_values=False,
    )


def _scrubbed(result):
    data = copy.deepcopy(program_result_to_dict(result))
    data["compile_seconds"] = 0.0
    data["metrics"] = None
    for region in data["regions"]:
        region["compile_seconds"] = 0.0
    return data


@pytest.fixture(scope="module")
def program():
    return _chaotic_program()


class TestEngineStress:
    def test_200_chaotic_regions_parallel_equals_serial(self, program):
        """Guarded chaos at scale: no lost regions, no pool breaks,
        parallel cycle-identical to serial."""
        machine = ClusteredVLIW(4)
        serial_registry = MetricsRegistry()
        serial = run_program(
            program, machine, _chaotic_convergent(machine),
            check_values=False, registry=serial_registry,
        )
        parallel_registry = MetricsRegistry()
        with CompilationEngine(jobs=4) as engine:
            parallel = run_program(
                program, machine, _chaotic_convergent(machine),
                check_values=False, registry=parallel_registry, engine=engine,
            )
            assert engine.pool_breaks == 0

        # Zero lost regions: one outcome per region, in region order.
        assert len(parallel.regions) == N_REGIONS
        assert [r.region_name for r in parallel.regions] == [
            region.name for region in program.regions
        ]
        # Every region survived the chaos (guard and chain absorbed it).
        assert parallel.status == "ok"
        assert _scrubbed(parallel) == _scrubbed(serial)
        # The chaos genuinely fired: the guard had to intervene, and it
        # intervened identically in both modes.
        serial_guard = serial_registry.counters.get("guard.rollbacks", 0)
        parallel_guard = parallel_registry.counters.get("guard.rollbacks", 0)
        assert serial_guard > 0
        assert parallel_guard == serial_guard

        print_report(
            "engine stress: 200 chaotic regions, jobs=4",
            f"regions: {len(parallel.regions)} (all ok)\n"
            f"guard rollbacks: {parallel_guard}\n"
            f"pool breaks: 0\n"
            f"total cycles: {parallel.cycles} (serial: {serial.cycles})",
        )

    def test_chain_degradation_under_always_raising_pass(self, program):
        """An unguarded always-raising pass kills the chain's first
        member on every region; the fallback still schedules all 200,
        identically in serial and parallel mode."""
        machine = ClusteredVLIW(4)
        serial = run_program(
            program, machine,
            _chaos_chain(machine, guard=False, raise_always=True),
            check_values=False,
        )
        with CompilationEngine(jobs=4) as engine:
            parallel = run_program(
                program, machine,
                _chaos_chain(machine, guard=False, raise_always=True),
                check_values=False, engine=engine,
            )
            assert engine.pool_breaks == 0
        assert parallel.status == "ok"
        assert len(parallel.regions) == N_REGIONS
        assert _scrubbed(parallel) == _scrubbed(serial)

    def test_worker_death_breaks_nothing(self, program):
        """A worker hard-killed mid-task (``os._exit``) breaks the pool;
        affected and remaining regions re-run inline in the parent —
        no hang, no lost regions, identical results."""
        machine = ClusteredVLIW(4)
        serial = run_program(
            program, machine, KamikazeScheduler(), check_values=False,
        )
        with CompilationEngine(jobs=4) as engine:
            parallel = run_program(
                program, machine, KamikazeScheduler(), check_values=False,
                engine=engine,
            )
            assert engine.pool_breaks == 1
        assert len(parallel.regions) == N_REGIONS
        assert [r.region_name for r in parallel.regions] == [
            region.name for region in program.regions
        ]
        assert _scrubbed(parallel) == _scrubbed(serial)

"""The per-machine feasibility table ≡ the scalar definition it replaced.

Every reader of placement legality — ``feasible_clusters``,
``RegionIndex.feasible``, ``extract_assignment`` and the list scheduler's
unit choice — reads the table :class:`~repro.machine.machine.Machine`
builds once.  The scalar per-instruction definitions they used before
are kept here, and only here, as oracles:

* the table rows equal ``Machine.can_execute`` cluster by cluster, and
  the unit table equals ``Cluster.units_for``;
* ``feasible_clusters`` and ``RegionIndex.feasible`` equal the scalar
  rule on every instruction of both suites plus seeded synthetic graphs;
* the masked-argmax extraction equals ``max`` with the lowest-cluster
  tie-break on marginals drawn with exact ties;
* the heap-ordered list scheduler pops exactly the order of the old
  sort-then-``pop(0)`` loop, placement for placement.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.convergent import ConvergentScheduler
from repro.core.kernels import build_region_index, feasibility_mask
from repro.ir.opcode import FuncClass
from repro.ir.regions import Program
from repro.machine import ClusteredVLIW, machine_from_spec
from repro.machine.machine import FUNC_CLASS_ROW
from repro.schedulers.list_scheduler import (
    ListScheduler,
    SchedulingError,
    _State,
    feasible_clusters,
)
from repro.schedulers.resources import ReservationTable
from repro.schedulers.schedule import Schedule
from repro.workloads import RAW_SUITE, VLIW_SUITE, apply_congruence, build_benchmark
from repro.workloads.synthetic import fat_graph, thin_graph

from .test_properties import random_dags

SPECS = ["vliw1", "vliw2", "vliw4", "vliw8", "raw2x2", "raw4x4", "raw4", "raw16"]
MACHINES = [machine_from_spec(spec) for spec in SPECS] + [
    ClusteredVLIW(4, fp_clusters=(0, 2))
]


def scalar_feasible(inst, machine):
    """The per-instruction definition the table replaced."""
    if inst.home_cluster is not None:
        return [inst.home_cluster]
    if inst.is_memory and inst.bank is not None and machine.memory_affinity == "hard":
        return [machine.bank_home(inst.bank)]
    return [c for c in range(machine.n_clusters) if machine.can_execute(c, inst.func_class)]


def _programs():
    raw, vliw = machine_from_spec("raw4x4"), machine_from_spec("vliw4")
    yield from ((build_benchmark(name, raw), raw) for name in RAW_SUITE)
    yield from ((build_benchmark(name, vliw), vliw) for name in VLIW_SUITE)
    yield apply_congruence(thin_graph(300, seed=7), raw), raw
    yield apply_congruence(fat_graph(300, seed=7), vliw), vliw


PROGRAMS = list(_programs())


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
class TestMachineTable:
    def test_class_clusters_match_can_execute(self, machine):
        for fc in FuncClass:
            oracle = [c for c in range(machine.n_clusters) if machine.can_execute(c, fc)]
            assert list(machine.class_clusters[fc]) == oracle
            assert np.flatnonzero(machine.class_mask[FUNC_CLASS_ROW[fc]]).tolist() == oracle

    def test_class_units_match_units_for(self, machine):
        for cluster in machine.clusters:
            for fc in FuncClass:
                units = cluster.units_for(fc)
                if not units and fc is FuncClass.CONST:
                    units = cluster.units  # CONST is legal on every cluster
                oracle = tuple(u for u, unit in enumerate(cluster.units) if unit in units)
                assert machine.class_units[cluster.index, fc] == oracle


@pytest.mark.parametrize("program,machine", PROGRAMS, ids=lambda x: x.name)
class TestRegionFeasibility:
    def test_feasible_clusters_match_scalar_rule(self, program, machine):
        for region in program.regions:
            for inst in region.ddg:
                assert feasible_clusters(inst, machine) == scalar_feasible(inst, machine)

    def test_region_index_mask_matches_scalar_rule(self, program, machine):
        for region in program.regions:
            mask = build_region_index(region.ddg, machine).feasible
            assert mask.shape == (len(region.ddg), machine.n_clusters)
            for inst in region.ddg:
                legal = [c for c in scalar_feasible(inst, machine)
                         if 0 <= c < machine.n_clusters]
                assert np.flatnonzero(mask[inst.uid]).tolist() == legal


class _Marginals:
    """A stand-in matrix exposing only ``cluster_marginals``."""

    def __init__(self, marginals):
        self._marginals = marginals

    def cluster_marginals(self):
        return self._marginals


@st.composite
def marginals_and_masks(draw):
    """Small-integer marginals (so exact ties are common) and a mask
    with at least one feasible cluster per row."""
    n = draw(st.integers(1, 12))
    c = draw(st.integers(1, 6))
    values = draw(st.lists(st.integers(0, 3), min_size=n * c, max_size=n * c))
    bits = draw(st.lists(st.booleans(), min_size=n * c, max_size=n * c))
    marginals = np.asarray(values, dtype=float).reshape(n, c) / 4.0
    mask = np.asarray(bits, dtype=bool).reshape(n, c)
    for i in range(n):
        if not mask[i].any():
            mask[i, draw(st.integers(0, c - 1))] = True
    return marginals, mask


class TestMaskedArgmax:
    @given(marginals_and_masks())
    @settings(max_examples=200, deadline=None)
    def test_matches_max_with_lowest_cluster_tie_break(self, drawn):
        marginals, mask = drawn
        region = PROGRAMS[0][0].regions[0]  # only its name is read
        got = ConvergentScheduler.extract_assignment(
            _Marginals(marginals), region, PROGRAMS[0][1], feasible=mask
        )
        for i, m in enumerate(marginals):
            feasible = np.flatnonzero(mask[i]).tolist()
            assert got[i] == max(feasible, key=lambda c: (m[c], -c))

    @pytest.mark.parametrize("program,machine", PROGRAMS[::4], ids=lambda x: x.name)
    def test_default_mask_is_the_region_mask(self, program, machine):
        rng = np.random.default_rng(0)
        for region in program.regions:
            n = len(region.ddg)
            marginals = rng.integers(0, 3, size=(n, machine.n_clusters)).astype(float)
            matrix = _Marginals(marginals)
            assert ConvergentScheduler.extract_assignment(
                matrix, region, machine
            ) == ConvergentScheduler.extract_assignment(
                matrix, region, machine, feasible=feasibility_mask(region.ddg, machine)
            )

    def test_all_false_row_keeps_its_message(self):
        program, machine = PROGRAMS[0]
        region = program.regions[0]
        mask = feasibility_mask(region.ddg, machine)
        mask[3] = False
        matrix = _Marginals(np.ones(mask.shape))
        with pytest.raises(SchedulingError, match="no feasible cluster for instruction 3 "):
            ConvergentScheduler.extract_assignment(matrix, region, machine, feasible=mask)


def reference_schedule(scheduler, region, machine, assignment=None, priorities=None):
    """``ListScheduler.schedule`` with the sort-then-``pop(0)`` ready list."""
    ddg = region.ddg
    tail = ddg.tail_length()
    if priorities is None:
        priorities = {i: -tail[i] for i in range(len(ddg))}
    state = _State(
        table=ReservationTable(),
        schedule=Schedule(region.name, machine.name, scheduler_name=scheduler.name),
        start={}, finish={}, cluster={}, arrivals={},
    )
    unscheduled = {i: len(ddg.predecessors(i)) for i in range(len(ddg))}
    ready = [i for i, n in unscheduled.items() if n == 0]
    while ready:
        ready.sort(key=lambda uid: (priorities.get(uid, 0.0), -tail[uid], uid))
        uid = ready.pop(0)
        inst = ddg.instruction(uid)
        cluster = scheduler._pick_cluster(inst, ddg, machine, assignment, state)
        scheduler._place(inst, cluster, ddg, machine, state)
        for edge in ddg.successors(uid):
            unscheduled[edge.dst] -= 1
            if unscheduled[edge.dst] == 0:
                ready.append(edge.dst)
    return state.schedule


def _same(a, b):
    """Schedules equal op for op, in placement order, and comm for comm."""
    assert list(a.ops.items()) == list(b.ops.items())
    assert a.comms == b.comms
    assert a == b


HEAP_MACHINES = [machine_from_spec("vliw4"), machine_from_spec("raw4"),
                 ClusteredVLIW(4, fp_clusters=(0, 2))]


class TestHeapOrder:
    @given(
        random_dags(max_nodes=30),
        st.sampled_from(range(len(HEAP_MACHINES))),
        st.integers(0, 2**31),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_assignment_schedules_match_sorted_ready_list(
        self, region, which, seed, tied_priorities
    ):
        machine = HEAP_MACHINES[which]
        apply_congruence(Program("p", [region]), machine)
        rng = np.random.default_rng(seed)
        assignment = {}
        for inst in region.ddg:
            legal = feasible_clusters(inst, machine)
            assignment[inst.uid] = legal[int(rng.integers(len(legal)))]
        priorities = None
        if tied_priorities:  # two values: ties everywhere, broken by tail then uid
            priorities = {i: int(rng.integers(2)) for i in range(len(region.ddg))}
        scheduler = ListScheduler(name="heap")
        _same(
            scheduler.schedule(region, machine, assignment=assignment, priorities=priorities),
            reference_schedule(scheduler, region, machine, assignment, priorities),
        )

    @given(random_dags(max_nodes=30), st.sampled_from(range(len(HEAP_MACHINES))))
    @settings(max_examples=30, deadline=None)
    def test_uas_schedules_match_sorted_ready_list(self, region, which):
        machine = HEAP_MACHINES[which]
        apply_congruence(Program("p", [region]), machine)
        scheduler = ListScheduler(name="uas", choose_clusters=True)
        _same(
            scheduler.schedule(region, machine),
            reference_schedule(scheduler, region, machine),
        )

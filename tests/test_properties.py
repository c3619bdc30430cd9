"""Property-based tests (hypothesis) on core data structures and
invariants.

Three families:

* the preference matrix keeps its two invariants under arbitrary pass
  operations;
* DDG analyses (earliest/tail/CPL/levels) satisfy their defining
  inequalities on random DAGs;
* the list scheduler produces simulator-clean schedules for random
  graphs, random machines, and random assignments.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import PreferenceMatrix
from repro.ir import Opcode, RegionBuilder
from repro.ir.regions import Program
from repro.machine import ClusteredVLIW, RawMachine
from repro.schedulers import ListScheduler, UnifiedAssignAndSchedule
from repro.schedulers.list_scheduler import feasible_clusters
from repro.sim import simulate
from repro.workloads import apply_congruence

_ARITH = [Opcode.ADD, Opcode.FADD, Opcode.FMUL, Opcode.SUB, Opcode.MUL]


@st.composite
def random_dags(draw, max_nodes=40):
    """A random connected-ish DAG with loads, stores, and arithmetic."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    b = RegionBuilder(f"prop{seed % 997}")
    values = [b.li(float(rng.integers(1, 9)))]
    for _ in range(n):
        kind = rng.random()
        if kind < 0.15:
            values.append(b.load(bank=int(rng.integers(0, 8)), array="a"))
        elif kind < 0.25 and values:
            b.store(values[int(rng.integers(len(values)))],
                    bank=int(rng.integers(0, 8)), array="out")
        else:
            op = _ARITH[int(rng.integers(len(_ARITH)))]
            x = values[int(rng.integers(len(values)))]
            y = values[int(rng.integers(len(values)))]
            values.append(b.op(op, x, y))
    b.live_out(values[-1])
    return b.build()


@st.composite
def matrices(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    c = draw(st.integers(min_value=1, max_value=6))
    t = draw(st.integers(min_value=1, max_value=10))
    return PreferenceMatrix(n, c, t)


class TestMatrixInvariants:
    @given(matrices(), st.integers(0, 1000), st.floats(0.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_scale_then_normalize_preserves_invariants(self, m, which, factor):
        i = which % m.n_instructions
        c = which % m.n_clusters
        m.scale(i, factor, cluster=c)
        m.normalize()
        m.check_invariants()

    @given(matrices(), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_squash_never_leaves_unschedulable_instruction(self, m, which):
        i = which % m.n_instructions
        for c in range(m.n_clusters):
            m.squash_cluster(i, c)  # squash everything
        m.normalize()
        m.check_invariants()
        assert m.cluster_marginals()[i].sum() > 0

    @given(matrices(), st.integers(0, 1000), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_blend_preserves_invariants(self, m, which, keep):
        if m.n_instructions < 2:
            return
        a, b = which % m.n_instructions, (which + 1) % m.n_instructions
        m.scale(a, 7.0, cluster=which % m.n_clusters)
        m.normalize()
        m.blend(b, a, keep=keep)
        m.normalize()
        m.check_invariants()

    @given(matrices())
    @settings(max_examples=40, deadline=None)
    def test_confidence_at_least_one(self, m):
        conf = m.confidences()
        assert np.all(conf >= 1.0 - 1e-9)


class TestDdgProperties:
    @given(random_dags())
    @settings(max_examples=40, deadline=None)
    def test_timing_inequalities(self, region):
        ddg = region.ddg
        est = ddg.earliest_start()
        tail = ddg.tail_length()
        cpl = ddg.critical_path_length()
        for uid in range(len(ddg)):
            assert est[uid] + tail[uid] <= cpl - 1
        for e in ddg.edges():
            assert est[e.dst] >= est[e.src] + e.latency
            assert tail[e.src] >= tail[e.dst] + e.latency

    @given(random_dags())
    @settings(max_examples=40, deadline=None)
    def test_topological_order_is_permutation(self, region):
        order = region.ddg.topological_order()
        assert sorted(order) == list(range(len(region.ddg)))

    @given(random_dags())
    @settings(max_examples=40, deadline=None)
    def test_critical_path_length_matches_path(self, region):
        ddg = region.ddg
        path = ddg.critical_path()
        total = 1
        for a, b in zip(path, path[1:]):
            latency = max(e.latency for e in ddg.successors(a) if e.dst == b)
            total += latency
        assert total == ddg.critical_path_length()

    @given(random_dags())
    @settings(max_examples=30, deadline=None)
    def test_slack_non_negative(self, region):
        assert all(s >= 0 for s in region.ddg.slack())


class TestSchedulerProperties:
    @given(random_dags(), st.integers(1, 4), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_list_scheduler_always_legal_on_vliw(self, region, n_clusters, salt):
        machine = ClusteredVLIW(n_clusters)
        apply_congruence(Program("p", [region]), machine)
        rng = np.random.default_rng(salt)
        assignment = {}
        for inst in region.ddg:
            feasible = feasible_clusters(inst, machine)
            assignment[inst.uid] = feasible[int(rng.integers(len(feasible)))]
        schedule = ListScheduler().schedule(region, machine, assignment=assignment)
        report = simulate(region, machine, schedule)
        assert report.ok
        assert report.values_checked == len(region.ddg)

    @given(random_dags(max_nodes=25))
    @settings(max_examples=20, deadline=None)
    def test_uas_always_legal_on_raw(self, region):
        machine = RawMachine(2, 2)
        apply_congruence(Program("p", [region]), machine)
        schedule = UnifiedAssignAndSchedule().schedule(region, machine)
        assert simulate(region, machine, schedule).ok

    @given(random_dags(max_nodes=25))
    @settings(max_examples=20, deadline=None)
    def test_makespan_at_least_cpl_bound(self, region):
        machine = ClusteredVLIW(4)
        apply_congruence(Program("p", [region]), machine)
        schedule = UnifiedAssignAndSchedule().schedule(region, machine)
        # Any legal schedule is at least as long as the latency-weighted
        # critical path (minus the trailing result's latency handling).
        est = region.ddg.earliest_start()
        assert schedule.makespan >= max(est, default=0)

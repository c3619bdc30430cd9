"""Kernel ≡ scalar-reference equivalence suite for :mod:`repro.core.kernels`.

Every registered pass keeps its original per-instruction update rule as
``_reference_update``; the vectorized ``apply`` must reproduce it
**bit-for-bit** (``tobytes()`` equality, not ``allclose``).  Three layers
of checks:

* lockstep property tests on random DAGs × machines × seeds, running
  the full 12-pass registry through both paths;
* unit tests for the shared primitives (``RegionIndex``, grouped BFS,
  ``gathered_row_sums``, PATHPROP step tables);
* a re-run of the V4xx pass-contract fixtures against the vectorized
  passes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kernels import (
    _first_min_steps,
    _pathprop_walk,
    build_region_index,
    gathered_row_sums,
    hop_distances,
    region_hop_distances,
)
from repro.core.passes import PASS_REGISTRY, PassContext, make_pass
from repro.core.sequences import RAW_SEQUENCE, TUNED_VLIW_SEQUENCE
from repro.core.weights import PreferenceMatrix
from repro.ir.regions import Program
from repro.machine import ClusteredVLIW
from repro.machine.raw import raw_with_tiles
from repro.schedulers.list_scheduler import feasible_clusters
from repro.verify import verify_pass_contracts
from repro.workloads import apply_congruence, build_benchmark

from .test_properties import random_dags

#: Every registered pass, in a sequence that lets each one see a matrix
#: already shaped by the others (INITTIME first, as in every published
#: sequence).
ALL_PASSES = [
    "INITTIME",
    "NOISE",
    "PLACE",
    "FIRST",
    "EMPHCP",
    "PATH",
    "COMM",
    "PLACEPROP",
    "LOAD",
    "LEVEL",
    "PATHPROP",
    "REGPRESS",
]

MACHINES = {
    "raw4": raw_with_tiles(4),
    "vliw4": ClusteredVLIW(4),
    # Heterogeneous: INITTIME actually squashes infeasible clusters.
    "vliw4het": ClusteredVLIW(4, fp_clusters=(0, 2)),
}


def _lockstep(region, machine, specs, seed=0):
    """Run ``specs`` through apply and _reference_update side by side.

    Asserts byte equality of the two matrices after every single pass,
    so a divergence is attributed to the pass that introduced it.
    """
    apply_congruence(Program("p", [region]), machine)
    ddg = region.ddg
    vec = PreferenceMatrix.for_region(ddg, machine.n_clusters)
    ref = PreferenceMatrix.for_region(ddg, machine.n_clusters)
    ctx_vec = PassContext(
        ddg=ddg, machine=machine, matrix=vec, rng=np.random.default_rng(seed)
    )
    ctx_ref = PassContext(
        ddg=ddg, machine=machine, matrix=ref, rng=np.random.default_rng(seed)
    )
    for spec in specs:
        scheduling_pass = make_pass(spec)
        scheduling_pass.apply(ctx_vec)
        vec.normalize()
        scheduling_pass._reference_update(ctx_ref)
        ref.normalize()
        assert vec.data.tobytes() == ref.data.tobytes(), (
            f"kernel diverged from scalar reference in {spec}"
        )
    return vec


class TestEveryPassHasReference:
    def test_registry_is_fully_covered(self):
        """ALL_PASSES is exactly the registry, and each has an oracle."""
        assert sorted(ALL_PASSES) == sorted(PASS_REGISTRY)
        for name, factory in PASS_REGISTRY.items():
            assert hasattr(factory(), "_reference_update"), name


class TestLockstepEquivalence:
    @given(
        random_dags(max_nodes=30),
        st.sampled_from(sorted(MACHINES)),
        st.integers(0, 2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_all_passes_bitwise_equal_on_random_dags(
        self, region, machine_key, seed
    ):
        _lockstep(region, MACHINES[machine_key], ALL_PASSES, seed=seed)

    @given(random_dags(max_nodes=25), st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_non_default_parameters_stay_equivalent(self, region, seed):
        specs = [
            "INITTIME",
            "NOISE(amount=0.5)",
            "PATH(paths=2)",
            "LEVEL(stride=2, granularity=1)",
            "COMM(sharpen=1.0)",
            "PATHPROP",
        ]
        _lockstep(region, MACHINES["raw4"], specs, seed=seed)

    @pytest.mark.parametrize("bench", ["cholesky", "vvmul"])
    @pytest.mark.parametrize(
        "machine_key,sequence",
        [("raw4", RAW_SEQUENCE), ("vliw4", TUNED_VLIW_SEQUENCE)],
    )
    def test_benchmark_regions_bitwise_equal(self, bench, machine_key, sequence):
        machine = MACHINES[machine_key]
        program = build_benchmark(bench, machine)
        for region in program.regions:
            _lockstep(region, machine, list(sequence))

    def test_numpy_bfs_fallback_stays_equivalent(self):
        """The kernels' numpy BFS matches the scalar reference bit-for-bit."""
        machine = MACHINES["raw4"]
        program = build_benchmark("vvmul", machine)
        for region in program.regions:
            _lockstep(region, machine, list(RAW_SEQUENCE))


class TestRegionIndex:
    @pytest.fixture(scope="class")
    def indexed(self):
        machine = raw_with_tiles(4)
        program = build_benchmark("cholesky", machine)
        region = program.regions[0]
        return region.ddg, machine, build_region_index(region.ddg, machine)

    def test_csr_mirrors_edge_lists(self, indexed):
        ddg, _, index = indexed
        for i in range(index.n):
            succ = index.succ_indices[
                index.succ_indptr[i] : index.succ_indptr[i + 1]
            ].tolist()
            assert succ == [e.dst for e in ddg.successors(i)]
            pred = index.pred_indices[
                index.pred_indptr[i] : index.pred_indptr[i + 1]
            ].tolist()
            assert pred == [e.src for e in ddg.predecessors(i)]
            adj = index.adj_indices[
                index.adj_indptr[i] : index.adj_indptr[i + 1]
            ].tolist()
            assert adj == ddg.neighbors(i)

    def test_feasible_and_homes_match_source_of_truth(self, indexed):
        ddg, machine, index = indexed
        for inst in ddg:
            legal = set(feasible_clusters(inst, machine))
            assert set(np.flatnonzero(index.feasible[inst.uid])) == legal
            home = inst.home_cluster if inst.home_cluster is not None else -1
            assert index.homes[inst.uid] == home
        assert index.preplaced.tolist() == ddg.preplaced()


class TestHopDistances:
    @pytest.fixture(scope="class")
    def indexed(self):
        machine = raw_with_tiles(4)
        program = build_benchmark("tomcatv", machine)
        region = program.regions[0]
        return region.ddg, build_region_index(region.ddg, machine)

    GROUPS = [[0], [], [0, 1, 2], [3, 3, 5]]  # singleton/empty/multi/dupes

    def test_grouped_rows_match_ddg_reference(self, indexed):
        ddg, index = indexed
        dist = region_hop_distances(index, self.GROUPS)
        for g, group in enumerate(self.GROUPS):
            if not group:
                assert np.all(dist[g] == index.n)
            else:
                expected = np.asarray(ddg.undirected_distances(group))
                assert np.array_equal(dist[g], expected)

    def test_max_depth_cap_matches_capped_exact_distances(self, indexed):
        _, index = indexed
        exact = region_hop_distances(index, self.GROUPS)
        for cap in (0, 1, 3):
            capped = region_hop_distances(index, self.GROUPS, max_depth=cap)
            assert np.array_equal(capped, np.where(exact <= cap, exact, index.n))

    def test_single_group_wrapper(self, indexed):
        ddg, index = indexed
        assert np.array_equal(
            hop_distances(index, [0, 4]),
            np.asarray(ddg.undirected_distances([0, 4])),
        )


class TestGatheredRowSums:
    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_matches_per_segment_reference(self, width):
        rng = np.random.default_rng(7)
        values = rng.random((6, width))
        lists = [[0, 1, 2], [], [5, 5], [4], [3, 0, 1, 2, 5]]
        indptr = np.cumsum([0] + [len(s) for s in lists]).astype(np.int64)
        indices = np.asarray(
            [v for s in lists for v in s], dtype=np.int64
        )
        out = gathered_row_sums(values, indptr, indices)
        for s, seg in enumerate(lists):
            expected = (
                values[list(seg)].sum(axis=0) if seg else np.zeros(width)
            )
            assert out[s].tobytes() == expected.tobytes()

    def test_empty_segments_only(self):
        values = np.ones((3, 2))
        indptr = np.zeros(4, dtype=np.int64)
        out = gathered_row_sums(values, indptr, np.asarray([], dtype=np.int64))
        assert out.shape == (3, 2) and not out.any()


class TestPathpropStepTables:
    def _tiny_index(self, succ_lists, homes):
        """A minimal stand-in RegionIndex for step-table unit tests."""
        n = len(succ_lists)
        indptr = np.cumsum([0] + [len(s) for s in succ_lists]).astype(np.int64)
        indices = np.asarray(
            [v for s in succ_lists for v in s], dtype=np.int64
        )

        class _Stub:
            pass

        stub = _Stub()
        stub.n = n
        stub.homes = np.asarray(homes, dtype=np.int64)
        return stub, indptr, indices

    def test_first_min_is_first_in_edge_order(self):
        # Node 0's candidates: conf 3.0, 1.0, 1.0 — the *first* 1.0 wins.
        stub, indptr, indices = self._tiny_index(
            [[1, 2, 3], [], [], []], [-1, -1, -1, -1]
        )
        conf = np.array([9.0, 3.0, 1.0, 1.0])
        nxt, nxt_conf = _first_min_steps(indptr, indices, conf, stub)
        assert nxt[0] == 2 and nxt_conf[0] == 1.0
        assert np.all(nxt[1:] == -1) and np.all(np.isinf(nxt_conf[1:]))

    def test_homed_candidates_are_masked(self):
        stub, indptr, indices = self._tiny_index(
            [[1, 2], [], []], [-1, 0, -1]  # node 1 is preplaced
        )
        conf = np.array([9.0, 1.0, 2.0])
        nxt, _ = _first_min_steps(indptr, indices, conf, stub)
        assert nxt[0] == 2  # the homed min-conf candidate never qualifies

    def test_walk_stops_at_source_confidence(self):
        stub, indptr, indices = self._tiny_index(
            [[1], [2], [3], []], [-1, -1, -1, -1]
        )
        conf = np.array([5.0, 3.0, 4.0, 8.0])
        steps = _first_min_steps(indptr, indices, conf, stub)
        # 0 -> 1 (3 < 5), 1 -> 2 (4 < 5), 2 -> 3 blocked (8 >= 5).
        assert _pathprop_walk(steps, 0, conf[0]) == [1, 2]

    def test_walk_never_revisits(self):
        stub, indptr, indices = self._tiny_index(
            [[1], [0], []], [-1, -1, -1]  # 2-cycle in the step table
        )
        conf = np.array([5.0, 1.0, 9.0])
        steps = _first_min_steps(indptr, indices, conf, stub)
        assert _pathprop_walk(steps, 0, conf[0]) == [1]


class TestContractFixturesAgainstKernels:
    def test_vectorized_passes_keep_v4xx_clean(self):
        """The V4xx contract fixtures re-run against the kernel-backed
        passes: every registered pass must stay violation-free."""
        reports = verify_pass_contracts(seed=0)
        assert set(reports) == set(PASS_REGISTRY)
        bad = {name: r.codes() for name, r in reports.items() if not r.ok}
        assert not bad, bad

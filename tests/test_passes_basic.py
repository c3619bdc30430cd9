"""Unit tests for INITTIME, NOISE, PLACE, FIRST, and EMPHCP."""

import numpy as np
import pytest

from repro.core import PreferenceMatrix
from repro.core.passes import (
    EmphasizeCriticalPathDistance,
    First,
    InitTime,
    Noise,
    PassContext,
    Place,
)
from repro.ir import RegionBuilder


def make_ctx(region, machine, seed=0):
    matrix = PreferenceMatrix.for_region(region.ddg, machine.n_clusters)
    return PassContext(
        ddg=region.ddg,
        machine=machine,
        matrix=matrix,
        rng=np.random.default_rng(seed),
    )


def chain_region():
    b = RegionBuilder("chain")
    v = b.live_in(name="v")
    one = b.li(1.0)
    for _ in range(3):
        v = b.fadd(v, one)
    b.live_out(v)
    return b.build()


class TestInitTime:
    def test_zeroes_infeasible_slots(self, vliw4):
        region = chain_region()
        ctx = make_ctx(region, vliw4)
        InitTime().apply(ctx)
        ctx.matrix.check_invariants()
        est = region.ddg.earliest_start()
        tail = region.ddg.tail_length()
        cpl = region.ddg.critical_path_length()
        for i in range(len(region.ddg)):
            time_marg = ctx.matrix.time_marginals()[i]
            for t in range(ctx.matrix.n_time_slots):
                feasible = est[i] <= t <= cpl - 1 - tail[i]
                if not feasible:
                    assert time_marg[t] == 0.0

    def test_critical_path_instruction_single_slot(self, vliw4):
        region = chain_region()
        ctx = make_ctx(region, vliw4)
        InitTime().apply(ctx)
        # Every instruction of a pure chain is critical: one feasible slot.
        for i in region.real_instructions():
            if region.ddg.slack()[i] == 0:
                nonzero = np.count_nonzero(ctx.matrix.time_marginals()[i])
                assert nonzero == 1

    def test_squashes_infeasible_clusters_for_preplaced(self, raw4):
        b = RegionBuilder("r")
        x = b.load(bank=2, array="a")  # hard affinity -> tile 2
        b.live_out(x)
        region = b.build()
        from repro.workloads import apply_congruence
        from repro.ir.regions import Program

        apply_congruence(Program("p", [region]), raw4)
        ctx = make_ctx(region, raw4)
        InitTime().apply(ctx)
        marg = ctx.matrix.cluster_marginals()[x.uid]
        assert marg[2] > 0
        assert marg[0] == marg[1] == marg[3] == 0


class TestNoise:
    def test_breaks_symmetry(self, vliw4):
        region = chain_region()
        ctx = make_ctx(region, vliw4)
        Noise().apply(ctx)
        ctx.matrix.check_invariants()
        marg = ctx.matrix.cluster_marginals()
        assert not np.allclose(marg, marg[:, :1])

    def test_preserves_zeros(self, vliw4):
        region = chain_region()
        ctx = make_ctx(region, vliw4)
        ctx.matrix.squash_cluster(0, 3)
        ctx.matrix.normalize()
        Noise().apply(ctx)
        assert ctx.matrix.cluster_marginals()[0][3] == 0.0

    def test_deterministic_under_seed(self, vliw4):
        region1, region2 = chain_region(), chain_region()
        ctx1 = make_ctx(region1, vliw4, seed=42)
        ctx2 = make_ctx(region2, vliw4, seed=42)
        Noise().apply(ctx1)
        Noise().apply(ctx2)
        assert np.allclose(ctx1.matrix.data, ctx2.matrix.data)

    def test_amount_zero_is_identity(self, vliw4):
        region = chain_region()
        ctx = make_ctx(region, vliw4)
        before = ctx.matrix.data.copy()
        Noise(amount=0.0).apply(ctx)
        assert np.allclose(ctx.matrix.data, before)

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            Noise(amount=-1.0)


class TestPlace:
    def test_preplaced_prefer_home(self, vliw4):
        b = RegionBuilder("r")
        x = b.live_in(name="x", home_cluster=2)
        b.live_out(b.fadd(x, b.li(1.0)))
        region = b.build()
        ctx = make_ctx(region, vliw4)
        Place().apply(ctx)
        assert ctx.matrix.preferred_cluster(x.uid) == 2

    def test_boost_is_strong(self, vliw4):
        b = RegionBuilder("r")
        x = b.live_in(name="x", home_cluster=1)
        b.live_out(x)
        region = b.build()
        ctx = make_ctx(region, vliw4)
        Place().apply(ctx)
        ctx.matrix.normalize()
        assert ctx.matrix.confidence(x.uid) >= 50.0

    def test_no_preplaced_is_noop(self, vliw4):
        region = chain_region()
        ctx = make_ctx(region, vliw4)
        before = ctx.matrix.data.copy()
        Place().apply(ctx)
        assert np.allclose(ctx.matrix.data, before)


class TestFirst:
    def test_biases_cluster_zero(self, vliw4):
        region = chain_region()
        ctx = make_ctx(region, vliw4)
        First().apply(ctx)
        ctx.matrix.check_invariants()
        for i in range(len(region.ddg)):
            assert ctx.matrix.preferred_cluster(i) == 0

    def test_boost_ratio(self, vliw4):
        region = chain_region()
        ctx = make_ctx(region, vliw4)
        First(boost=1.2).apply(ctx)
        marg = ctx.matrix.cluster_marginals()[0]
        assert marg[0] / marg[1] == pytest.approx(1.2)


class TestEmphCP:
    def test_emphasizes_level_slot(self, vliw4):
        region = chain_region()
        ctx = make_ctx(region, vliw4)
        EmphasizeCriticalPathDistance().apply(ctx)
        ctx.matrix.check_invariants()
        levels = region.ddg.levels()
        for i in range(len(region.ddg)):
            slot = min(levels[i], ctx.matrix.n_time_slots - 1)
            assert ctx.matrix.preferred_time(i) == slot

    def test_level_clamped_to_horizon(self, vliw4):
        # Hop levels can exceed a deliberately small time horizon; the
        # pass must clamp rather than index out of range.
        region = chain_region()
        matrix = PreferenceMatrix(len(region.ddg), vliw4.n_clusters, 2)
        ctx = PassContext(
            ddg=region.ddg, machine=vliw4, matrix=matrix,
            rng=np.random.default_rng(0),
        )
        EmphasizeCriticalPathDistance().apply(ctx)  # must not raise
        ctx.matrix.check_invariants()

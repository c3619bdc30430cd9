"""Unit tests for the preference matrix — the paper's core interface."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PreferenceMatrix
from repro.ir import DataDependenceGraph, Opcode


@pytest.fixture
def matrix():
    return PreferenceMatrix(n_instructions=3, n_clusters=4, n_time_slots=5)


class TestConstruction:
    def test_starts_uniform(self, matrix):
        assert np.allclose(matrix.data, 1.0 / 20)
        matrix.check_invariants()

    def test_shape_properties(self, matrix):
        assert matrix.n_instructions == 3
        assert matrix.n_clusters == 4
        assert matrix.n_time_slots == 5

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            PreferenceMatrix(1, 0, 5)
        with pytest.raises(ValueError):
            PreferenceMatrix(1, 4, 0)

    def test_for_region_uses_cpl(self):
        g = DataDependenceGraph()
        a = g.new_instruction(Opcode.LOAD)
        g.new_instruction(Opcode.FADD, (a.uid,))

        m = PreferenceMatrix.for_region(g, n_clusters=2)
        assert m.n_time_slots == g.critical_path_length()
        assert m.n_instructions == 2


class TestInvariants:
    def test_normalize_restores_sum(self, matrix):
        matrix.scale(0, 10.0, cluster=1)
        matrix.normalize()
        matrix.check_invariants()

    def test_normalize_resets_zeroed_instruction(self, matrix):
        matrix.data[1] = 0.0
        matrix.touch()
        matrix.normalize()
        matrix.check_invariants()
        assert np.allclose(matrix.data[1], 1.0 / 20)

    def test_check_invariants_detects_negative(self, matrix):
        matrix.data[0, 0, 0] = -0.5
        matrix.touch()
        with pytest.raises(ValueError, match="negative"):
            matrix.check_invariants()

    def test_check_invariants_detects_bad_sum(self, matrix):
        matrix.data[0] *= 2
        matrix.touch()
        with pytest.raises(ValueError, match="sum"):
            matrix.check_invariants()


class TestPreferred:
    def test_preferred_cluster_follows_scaling(self, matrix):
        matrix.scale(0, 5.0, cluster=2)
        assert matrix.preferred_cluster(0) == 2

    def test_preferred_time_follows_scaling(self, matrix):
        matrix.scale(1, 5.0, time=3)
        assert matrix.preferred_time(1) == 3

    def test_vectorized_preferred_match_scalar(self, matrix):
        matrix.scale(0, 3.0, cluster=1)
        matrix.scale(2, 3.0, cluster=3)
        matrix.normalize()
        assert matrix.preferred_clusters() == [
            matrix.preferred_cluster(i) for i in range(3)
        ]
        assert matrix.preferred_times() == [
            matrix.preferred_time(i) for i in range(3)
        ]

    def test_runnerup_cluster(self, matrix):
        matrix.scale(0, 8.0, cluster=1)
        matrix.scale(0, 4.0, cluster=2)
        assert matrix.runnerup_cluster(0) == 2

    def test_runnerup_none_on_single_cluster(self):
        m = PreferenceMatrix(2, 1, 4)
        assert m.runnerup_cluster(0) is None
        assert math.isinf(m.confidence(0))


class TestConfidence:
    def test_uniform_confidence_is_one(self, matrix):
        assert matrix.confidence(0) == pytest.approx(1.0)

    def test_confidence_is_top_over_runnerup(self, matrix):
        matrix.scale(0, 6.0, cluster=0)
        matrix.normalize()
        assert matrix.confidence(0) == pytest.approx(6.0)

    def test_confidences_vector_matches_scalar(self, matrix):
        matrix.scale(1, 3.0, cluster=2)
        matrix.normalize()
        vec = matrix.confidences()
        for i in range(3):
            assert vec[i] == pytest.approx(matrix.confidence(i))

    def test_infinite_confidence_when_runnerup_zero(self, matrix):
        for c in (1, 2, 3):
            matrix.squash_cluster(0, c)
        matrix.normalize()
        assert math.isinf(matrix.confidence(0))


class TestOperations:
    def test_scale_slice_cluster_and_time(self, matrix):
        matrix.scale(0, 2.0, cluster=1, time=2)
        assert matrix.data[0, 1, 2] == pytest.approx(2.0 / 20)
        assert matrix.data[0, 1, 3] == pytest.approx(1.0 / 20)

    def test_scale_negative_rejected(self, matrix):
        with pytest.raises(ValueError):
            matrix.scale(0, -1.0)

    def test_squash_time_outside(self, matrix):
        matrix.squash_time_outside(0, 1, 3)
        assert np.all(matrix.data[0, :, 0] == 0)
        assert np.all(matrix.data[0, :, 4] == 0)
        assert np.all(matrix.data[0, :, 1:4] > 0)

    def test_squash_time_empty_window_raises(self, matrix):
        with pytest.raises(ValueError):
            matrix.squash_time_outside(0, 4, 2)

    def test_squash_cluster(self, matrix):
        matrix.squash_cluster(1, 0)
        matrix.normalize()
        assert matrix.cluster_marginals()[1][0] == 0

    def test_blend_full(self, matrix):
        matrix.scale(0, 10.0, cluster=0)
        matrix.scale(1, 10.0, cluster=3)
        matrix.normalize()
        matrix.blend(1, 0, keep=0.5)
        matrix.normalize()
        # Instruction 1 now has substantial weight on both clusters.
        marg = matrix.cluster_marginals()[1]
        assert marg[0] > 0.2 and marg[3] > 0.2

    def test_blend_keep_range_validated(self, matrix):
        with pytest.raises(ValueError):
            matrix.blend(0, 1, keep=1.5)

    def test_blend_space_preserves_time_profile(self, matrix):
        matrix.scale(0, 10.0, time=2)
        matrix.scale(1, 10.0, cluster=3)
        matrix.normalize()
        before_time = matrix.time_marginals()[0].copy()
        before_time /= before_time.sum()
        matrix.blend_space(0, 1, keep=0.5)
        matrix.normalize()
        after_time = matrix.time_marginals()[0]
        after_time = after_time / after_time.sum()
        assert np.allclose(before_time, after_time, atol=1e-9)
        assert matrix.preferred_cluster(0) == 3 or matrix.cluster_marginals()[0][3] > 0.2

    def test_copy_is_independent(self, matrix):
        clone = matrix.copy()
        matrix.scale(0, 5.0, cluster=1)
        assert clone.data[0, 1, 0] == pytest.approx(1.0 / 20)


class TestEdgeCases:
    """Boundary shapes and parameter extremes."""

    def test_single_instruction_region(self):
        g = DataDependenceGraph()
        g.new_instruction(Opcode.LOAD)
        m = PreferenceMatrix.for_region(g, n_clusters=3)
        assert m.n_instructions == 1
        assert m.preferred_clusters() == [m.preferred_cluster(0)]
        assert m.preferred_times() == [m.preferred_time(0)]
        m.scale(0, 4.0, cluster=2)
        m.normalize()
        m.check_invariants()
        assert m.preferred_cluster(0) == 2
        assert m.health() is None

    def test_zero_instruction_matrix(self):
        m = PreferenceMatrix(0, 2, 3)
        assert m.preferred_clusters() == []
        assert m.preferred_times() == []
        m.normalize()
        m.check_invariants()
        assert m.health() is None

    def test_blend_keep_one_is_identity(self, matrix):
        matrix.scale(0, 5.0, cluster=1)
        matrix.scale(1, 5.0, cluster=3)
        matrix.normalize()
        before = matrix.data[0].copy()
        matrix.blend(0, 1, keep=1.0)
        assert np.allclose(matrix.data[0], before)

    def test_blend_keep_zero_copies_source(self, matrix):
        matrix.scale(0, 5.0, cluster=1)
        matrix.scale(1, 5.0, cluster=3)
        matrix.normalize()
        matrix.blend(0, 1, keep=0.0)
        assert np.allclose(matrix.data[0], matrix.data[1])

    def test_blend_space_keep_one_is_identity(self, matrix):
        matrix.scale(0, 5.0, cluster=1)
        matrix.scale(1, 5.0, cluster=3)
        matrix.normalize()
        before = matrix.data[0].copy()
        matrix.blend_space(0, 1, keep=1.0)
        assert np.allclose(matrix.data[0], before)

    def test_blend_space_keep_zero_adopts_source_marginals(self, matrix):
        matrix.scale(0, 5.0, cluster=1)
        matrix.scale(1, 5.0, cluster=3)
        matrix.normalize()
        matrix.blend_space(0, 1, keep=0.0)
        assert np.allclose(
            matrix.cluster_marginals()[0], matrix.cluster_marginals()[1]
        )

    def test_check_invariants_catches_hand_corruption(self, matrix):
        matrix.data[2, 1, 3] = 7.5  # > 1 and breaks the row sum
        matrix.touch()
        with pytest.raises(ValueError):
            matrix.check_invariants()
        matrix.normalize()
        matrix.check_invariants()

    def test_check_invariants_catches_nan_row(self, matrix):
        matrix.data[0, 0, 0] = np.nan
        matrix.touch()
        with pytest.raises(ValueError):
            matrix.check_invariants()


class TestMarginalCaching:
    def test_marginals_memoized_until_touch(self, matrix):
        first = matrix.cluster_marginals()
        assert matrix.cluster_marginals() is first
        matrix.touch()
        assert matrix.cluster_marginals() is not first

    def test_render_cluster_map_shape(self, matrix):
        matrix.scale(0, 9.0, cluster=2)
        matrix.normalize()
        text = matrix.render_cluster_map()
        lines = text.splitlines()
        assert len(lines) == 3
        assert all("|" in line for line in lines)


def _literal_normalize(w):
    """The normalize rule written out: zero rows to uniform, then divide
    every row by its sum."""
    out = w.copy()
    zero = out.sum(axis=(1, 2)) <= 0.0
    out[zero] = 1.0 / (out.shape[1] * out.shape[2])
    return out / out.sum(axis=(1, 2), keepdims=True)


@st.composite
def _weight_arrays(draw):
    """Non-negative ``(N, C, T)`` weights mixing four kinds of row:
    arbitrary ones, rows that sum to exactly 1.0 (one-hot), rows divided
    once by their own sum (so most sum to 1.0 or miss it by an ulp or
    two — where only an exact test is right), and all-zero rows."""
    n = draw(st.integers(1, 24))
    c = draw(st.integers(1, 4))
    t = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    w = rng.random((n, c, t)) * draw(st.sampled_from([1e-3, 1.0, 7.0]))
    kinds = draw(st.lists(st.sampled_from("aunnz"), min_size=n, max_size=n))
    for i, kind in enumerate(kinds):
        if kind == "u":
            w[i] = 0.0
            w[i].flat[int(rng.integers(c * t))] = 1.0
        elif kind == "n":
            w[i] /= w[i].sum()
        elif kind == "z":
            w[i] = 0.0
    return w


class TestNormalizeSkipsUnitRows:
    """``normalize`` leaves rows that already sum to exactly 1.0 alone;
    ``x / 1.0 == x`` in IEEE arithmetic, so it must still equal the
    literal divide byte for byte."""

    @given(_weight_arrays(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_literal_divide(self, w, memoized):
        m = PreferenceMatrix(*w.shape)
        m.data[...] = w
        m.touch()
        if memoized:
            m.health()  # memoizes the row sums normalize then reads
        m.normalize()
        assert m.data.tobytes() == _literal_normalize(w).tobytes()

    @pytest.mark.parametrize("off_rows", [1, 7, 8, 9, 31, 32])
    def test_both_sides_of_the_divide_all_switch(self, off_rows):
        from repro.core.weights import DIVIDE_ALL_FRACTION

        n = 32  # off_rows < 8 gathers, >= 8 (a quarter) divides everything
        rng = np.random.default_rng(off_rows)
        w = np.zeros((n, 3, 4))
        w[:, 0, 0] = 1.0  # unit rows
        w[:off_rows] = rng.random((off_rows, 3, 4))
        assert (off_rows >= DIVIDE_ALL_FRACTION * n) == (off_rows >= 8)
        m = PreferenceMatrix(n, 3, 4)
        m.data[...] = w
        m.touch()
        m.normalize()
        assert m.data.tobytes() == _literal_normalize(w).tobytes()

    def test_gathered_rows_span_several_blocks(self, monkeypatch):
        from repro.core import weights

        monkeypatch.setattr(weights, "NORMALIZE_BLOCK_ELEMENTS", 24)  # 2 rows
        rng = np.random.default_rng(3)
        w = np.zeros((40, 3, 4))
        w[:, 1, 2] = 1.0
        off = [0, 5, 6, 17, 18, 19, 33]  # under a quarter, over 3 blocks
        w[off] = rng.random((len(off), 3, 4))
        m = PreferenceMatrix(40, 3, 4)
        m.data[...] = w
        m.touch()
        m.normalize()
        assert m.data.tobytes() == _literal_normalize(w).tobytes()

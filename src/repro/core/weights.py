"""The convergent scheduling preference matrix.

This is the paper's central interface (Section 3): a three-dimensional
matrix ``W[i, c, t]`` over instructions *i*, clusters *c*, and time slots
*t*, holding each instruction's preference for executing on cluster *c*
at time *t*.  Two invariants hold between passes::

    forall i, c, t :  0 <= W[i, c, t] <= 1
    forall i       :  sum over (c, t) of W[i, c, t] == 1

Passes read the current preferences, nudge them (multiply, add, blend,
squash), and renormalize.  The matrix memoizes its space and time
marginals so that ``preferred_cluster`` / ``preferred_time`` /
``confidence`` queries are O(1) between mutations, mirroring the paper's
incremental sum tracking.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..ir.ddg import DataDependenceGraph

#: :meth:`PreferenceMatrix.normalize` divides the whole array once at
#: least this fraction of its rows does not already sum to exactly 1.0.
DIVIDE_ALL_FRACTION = 0.25

#: Weights per gathered block when :meth:`PreferenceMatrix.normalize`
#: divides only some rows (512 KiB of float64).
NORMALIZE_BLOCK_ELEMENTS = 1 << 16


class PreferenceMatrix:
    """Preference weights ``W[i, c, t]`` for one scheduling region.

    Args:
        n_instructions: Number of instructions (rows).
        n_clusters: Number of clusters/tiles.
        n_time_slots: Number of time slots; the paper allocates one per
            cycle of critical path length.

    The matrix starts uniform: every (cluster, slot) pair is equally
    preferred by every instruction.
    """

    def __init__(self, n_instructions: int, n_clusters: int, n_time_slots: int) -> None:
        if n_instructions < 0 or n_clusters < 1 or n_time_slots < 1:
            raise ValueError(
                f"invalid matrix shape ({n_instructions}, {n_clusters}, {n_time_slots})"
            )
        self._w = np.full(
            (n_instructions, n_clusters, n_time_slots),
            1.0 / (n_clusters * n_time_slots),
            dtype=np.float64,
        )
        self._cluster_marginal: Optional[np.ndarray] = None  # (N, C)
        self._time_marginal: Optional[np.ndarray] = None  # (N, T)
        self._row_sums: Optional[np.ndarray] = None  # (N,)

    @classmethod
    def for_region(cls, ddg: DataDependenceGraph, n_clusters: int) -> "PreferenceMatrix":
        """Allocate a matrix sized to ``ddg``'s critical path length.

        Args:
            ddg: The region's data dependence graph.
            n_clusters: Number of clusters on the target machine.

        Returns:
            A fresh uniform matrix with one row per instruction and one
            time slot per critical-path step (at least one).
        """
        return cls(len(ddg), n_clusters, max(1, ddg.critical_path_length()))

    # ------------------------------------------------------------------
    # Shape and raw access
    # ------------------------------------------------------------------

    @property
    def n_instructions(self) -> int:
        """Number of instructions."""
        return self._w.shape[0]

    @property
    def n_clusters(self) -> int:
        """Number of clusters."""
        return self._w.shape[1]

    @property
    def n_time_slots(self) -> int:
        """Number of time slots."""
        return self._w.shape[2]

    @property
    def data(self) -> np.ndarray:
        """The underlying ``(N, C, T)`` array.

        Passes may mutate it directly for vectorized updates, but must
        call :meth:`touch` afterwards (and usually :meth:`normalize`).
        """
        return self._w

    def touch(self) -> None:
        """Invalidate memoized marginals after direct mutation of
        :attr:`data`."""
        self._cluster_marginal = None
        self._time_marginal = None
        self._row_sums = None

    def copy(self) -> "PreferenceMatrix":
        """Deep copy (used by the convergence tracker for snapshots)."""
        out = PreferenceMatrix(self.n_instructions, self.n_clusters, self.n_time_slots)
        out._w = self._w.copy()
        return out

    # ------------------------------------------------------------------
    # Checkpoint / restore / health (fault tolerance)
    # ------------------------------------------------------------------

    def checkpoint(self) -> np.ndarray:
        """A cheap restore token: a flat copy of the raw weights.

        Unlike :meth:`copy` no ``PreferenceMatrix`` object is built, so a
        checkpoint costs one array copy — taken before every guarded pass.
        """
        return self._w.copy()

    def restore(self, token: np.ndarray) -> None:
        """Roll the weights back to a :meth:`checkpoint` token."""
        if token.shape != self._w.shape:
            raise ValueError(
                f"checkpoint shape {token.shape} does not match matrix "
                f"shape {self._w.shape}"
            )
        np.copyto(self._w, token)
        self.touch()

    def health(self, check_normalization: bool = False) -> Optional[str]:
        """One-line description of the first health violation, or ``None``.

        Checks, in order: NaN entries, infinite entries, negative
        weights, and all-zero instruction rows (an instruction left with
        no feasible slot at all).  With ``check_normalization`` the
        per-instruction sum-to-one invariant is verified too — off by
        default because passes legitimately denormalize between
        :meth:`normalize` calls.

        Unlike :meth:`check_invariants` this never raises; the pass
        guard turns a non-``None`` report into a rollback.
        """
        if self._w.size:
            # Fast path for the (overwhelmingly common) healthy case:
            # two fused reductions replace four boolean full-matrix
            # scans.  min() is NaN when any entry is NaN, -inf/negative
            # when any entry is, so a healthy minimum proves the NaN and
            # negativity scans below would pass; and once every entry is
            # known non-negative, an infinite entry would make its row
            # sum infinite, so all-finite row sums rule out +inf without
            # a dedicated max() sweep.
            lo = float(self._w.min())
            if lo >= 0.0 and bool(np.isfinite(sums := self._w.sum(axis=(1, 2))).all()):
                # The guard calls health() and then immediately
                # normalize(); memoizing the row sums (invalidated by
                # touch, like the marginals) spares normalize its own
                # full-matrix reduction.
                self._row_sums = sums
                zero_rows = np.flatnonzero(sums <= 0.0)
                if zero_rows.size:
                    return f"instruction {int(zero_rows[0])} has an all-zero row"
                if check_normalization and not np.allclose(sums, 1.0, atol=1e-6):
                    worst = int(np.argmax(np.abs(sums - 1.0)))
                    return (
                        f"instruction {worst} weights sum to {sums[worst]:.6f}, "
                        "expected 1"
                    )
                return None
        if np.isnan(self._w).any():
            bad = int(np.argwhere(np.isnan(self._w))[0][0])
            return f"NaN weight in instruction {bad}'s row"
        if np.isinf(self._w).any():
            bad = int(np.argwhere(np.isinf(self._w))[0][0])
            return f"infinite weight in instruction {bad}'s row"
        if (self._w < 0.0).any():
            bad = int(np.argwhere(self._w < 0.0)[0][0])
            return f"negative weight in instruction {bad}'s row"
        if self.n_instructions:
            sums = self._w.sum(axis=(1, 2))
            zero_rows = np.flatnonzero(sums <= 0.0)
            if zero_rows.size:
                return f"instruction {int(zero_rows[0])} has an all-zero row"
            if check_normalization and not np.allclose(sums, 1.0, atol=1e-6):
                worst = int(np.argmax(np.abs(sums - 1.0)))
                return (
                    f"instruction {worst} weights sum to {sums[worst]:.6f}, "
                    "expected 1"
                )
        return None

    # ------------------------------------------------------------------
    # Marginals and preferred slots
    # ------------------------------------------------------------------

    def cluster_marginals(self) -> np.ndarray:
        """``(N, C)`` array: weight of each cluster summed over time."""
        if self._cluster_marginal is None:
            self._cluster_marginal = self._w.sum(axis=2)
        return self._cluster_marginal

    def time_marginals(self) -> np.ndarray:
        """``(N, T)`` array: weight of each time slot summed over clusters."""
        if self._time_marginal is None:
            self._time_marginal = self._w.sum(axis=1)
        return self._time_marginal

    def preferred_cluster(self, i: int) -> int:
        """argmax over clusters of the time-summed weight of ``i``."""
        return int(np.argmax(self.cluster_marginals()[i]))

    def preferred_time(self, i: int) -> int:
        """argmax over time slots of the cluster-summed weight of ``i``."""
        return int(np.argmax(self.time_marginals()[i]))

    def preferred_clusters(self) -> List[int]:
        """Preferred cluster of every instruction (vectorized)."""
        if self.n_instructions == 0:
            return []
        preferred: List[int] = np.argmax(self.cluster_marginals(), axis=1).tolist()
        return preferred

    def preferred_times(self) -> List[int]:
        """Preferred time slot of every instruction (vectorized)."""
        if self.n_instructions == 0:
            return []
        preferred: List[int] = np.argmax(self.time_marginals(), axis=1).tolist()
        return preferred

    def runnerup_cluster(self, i: int) -> Optional[int]:
        """The second-choice cluster of ``i``; ``None`` on 1-cluster machines."""
        if self.n_clusters < 2:
            return None
        marg = self.cluster_marginals()[i]
        order = np.argsort(marg)
        return int(order[-2])

    def confidence(self, i: int) -> float:
        """Ratio of the preferred cluster's weight to the runner-up's.

        The paper's confidence measure: how sure the scheduler currently
        is about instruction ``i``'s spatial assignment.  Returns ``inf``
        on single-cluster machines or when the runner-up has no weight.
        """
        runnerup = self.runnerup_cluster(i)
        if runnerup is None:
            return math.inf
        marg = self.cluster_marginals()[i]
        top = float(marg[self.preferred_cluster(i)])
        second = float(marg[runnerup])
        if second <= 0.0:
            return math.inf
        return top / second

    def confidences(self) -> np.ndarray:
        """Vector of per-instruction confidences (``inf`` where undefined)."""
        if self.n_clusters < 2:
            return np.full(self.n_instructions, np.inf)
        marg = np.sort(self.cluster_marginals(), axis=1)
        top = marg[:, -1]
        second = marg[:, -2]
        with np.errstate(divide="ignore", invalid="ignore"):
            conf = np.where(second > 0.0, top / np.maximum(second, 1e-300), np.inf)
        return conf

    # ------------------------------------------------------------------
    # Aggregate sharpness statistics (observability)
    # ------------------------------------------------------------------

    def entropies(self) -> np.ndarray:
        """Normalized spatial entropy per instruction, in ``[0, 1]``.

        Shannon entropy of each instruction's cluster marginal, divided
        by ``log(n_clusters)``: 1 means the instruction is indifferent
        (uniform over clusters), 0 means fully decided.  On one-cluster
        machines every instruction is trivially decided (all zeros).
        Works only on the memoized ``(N, C)`` marginals, so it is cheap
        enough to evaluate after every pass.
        """
        if self.n_instructions == 0:
            return np.zeros(0)
        if self.n_clusters < 2:
            return np.zeros(self.n_instructions)
        marg = self.cluster_marginals()
        sums = marg.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.where(sums > 0, marg / np.maximum(sums, 1e-300), 0.0)
            logp = np.where(p > 0, np.log(np.maximum(p, 1e-300)), 0.0)
        return -(p * logp).sum(axis=1) / math.log(self.n_clusters)

    def mean_entropy(self) -> float:
        """Mean of :meth:`entropies`; 0 for an empty matrix."""
        ent = self.entropies()
        return float(ent.mean()) if ent.size else 0.0

    def mean_confidence(self, cap: float = 100.0) -> float:
        """Mean per-instruction confidence, clamped to ``cap``.

        The clamp keeps the mean finite and comparable across passes:
        a single fully-decided instruction (confidence ``inf``) would
        otherwise dominate the statistic.  0 for an empty matrix.
        """
        if self.n_instructions == 0:
            return 0.0
        return float(np.minimum(self.confidences(), cap).mean())

    # ------------------------------------------------------------------
    # Basic operations (Section 3, "basic operations on the weights")
    # ------------------------------------------------------------------

    def scale(
        self,
        i: int,
        factor: float,
        cluster: Optional[int] = None,
        time: Optional[int] = None,
    ) -> None:
        """Multiply a slice of instruction ``i``'s weights by ``factor``.

        Args:
            i: Instruction row to modify.
            factor: Non-negative multiplier.
            cluster: Restrict to one cluster; ``None`` spans the axis.
            time: Restrict to one time slot; ``None`` spans the axis.
        """
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        c_idx = slice(None) if cluster is None else cluster
        t_idx = slice(None) if time is None else time
        self._w[i, c_idx, t_idx] *= factor
        self.touch()

    def squash_time_outside(self, i: int, first: int, last: int) -> None:
        """Zero every time slot of ``i`` outside ``[first, last]``.

        Used by INITTIME to erase infeasible slots.

        Args:
            i: Instruction row to modify.
            first: First feasible slot (clamped to 0).
            last: Last feasible slot (clamped to the matrix width).
        """
        first = max(0, first)
        last = min(self.n_time_slots - 1, last)
        if first > last:
            raise ValueError(f"empty feasible window [{first}, {last}] for instruction {i}")
        self._w[i, :, :first] = 0.0
        self._w[i, :, last + 1 :] = 0.0
        self.touch()

    def squash_cluster(self, i: int, cluster: int) -> None:
        """Zero all weight of ``i`` on ``cluster`` (infeasible placement).

        Args:
            i: Instruction row to modify.
            cluster: Cluster column to erase.
        """
        self._w[i, cluster, :] = 0.0
        self.touch()

    def blend(self, dst: int, src: int, keep: float) -> None:
        """``W[dst] <- keep * W[dst] + (1 - keep) * W[src]``.

        The paper's two-instruction linear combination, used by PATHPROP
        to propagate a confident instruction's matrix along a path.

        Args:
            dst: Instruction whose weights are updated in place.
            src: Instruction whose weights are blended in.
            keep: Fraction of ``dst``'s own weights retained, in [0, 1].
        """
        if not 0.0 <= keep <= 1.0:
            raise ValueError("keep must be in [0, 1]")
        self._w[dst] = keep * self._w[dst] + (1.0 - keep) * self._w[src]
        self.touch()

    def blend_space(self, dst: int, src: int, keep: float) -> None:
        """Blend only the spatial distribution of ``src`` into ``dst``.

        ``dst``'s own time distribution is preserved; its per-cluster
        mass moves toward ``src``'s cluster marginals.  This is the
        paper's cheaper partial combination "only along the space
        dimension".

        Args:
            dst: Instruction whose cluster marginals are updated.
            src: Instruction whose cluster marginals are blended in.
            keep: Fraction of ``dst``'s own marginals retained, in [0, 1].
        """
        if not 0.0 <= keep <= 1.0:
            raise ValueError("keep must be in [0, 1]")
        dst_c = self.cluster_marginals()[dst]
        src_c = self.cluster_marginals()[src]
        target_c = keep * dst_c + (1.0 - keep) * src_c
        # Rescale each cluster row of dst to hit the blended marginal,
        # keeping the time profile; empty rows borrow dst's average
        # time profile.
        time_profile = self._w[dst].sum(axis=0)
        if time_profile.sum() <= 0:
            time_profile = np.full(self.n_time_slots, 1.0 / self.n_time_slots)
        else:
            time_profile = time_profile / time_profile.sum()
        for c in range(self.n_clusters):
            row_sum = dst_c[c]
            if row_sum > 0:
                self._w[dst, c] *= target_c[c] / row_sum
            else:
                self._w[dst, c] = target_c[c] * time_profile
        self.touch()

    def normalize(self) -> None:
        """Restore the per-instruction sum-to-one invariant.

        Instructions whose weights have been squashed to all-zero are
        reset to uniform, so no instruction is ever left unschedulable.

        Rows whose sum is exactly 1.0 are left alone: ``x / 1.0 == x``
        in IEEE arithmetic, so skipping them is exact.  Most rows arrive
        that way (a pass's kernel normalizes just before the guard's
        post-pass normalize), so only the others are divided — unless at
        least :data:`DIVIDE_ALL_FRACTION` of the rows need it, when one
        in-place divide of the whole array is cheaper than a gather.
        """
        if self._row_sums is not None:
            sums = self._row_sums
        else:
            sums = self._w.sum(axis=(1, 2))
        zero = sums <= 0.0
        if np.any(zero):
            self._w[zero] = 1.0 / (self.n_clusters * self.n_time_slots)
            sums = self._w.sum(axis=(1, 2))
        off = np.flatnonzero(sums != 1.0)
        if off.size >= DIVIDE_ALL_FRACTION * sums.size:
            self._w /= sums.reshape(-1, 1, 1)
        else:
            # Gather in blocks of about NORMALIZE_BLOCK_ELEMENTS weights,
            # so the temporary stays small next to the matrix.
            block = max(1, NORMALIZE_BLOCK_ELEMENTS // (self.n_clusters * self.n_time_slots))
            for at in range(0, off.size, block):
                rows = off[at : at + block]
                self._w[rows] /= sums[rows].reshape(-1, 1, 1)
        self.touch()

    def check_invariants(self, tolerance: float = 1e-9) -> None:
        """Raise ``ValueError`` if the two matrix invariants are violated."""
        if np.any(self._w < -tolerance):
            raise ValueError("negative preference weight")
        if np.any(self._w > 1.0 + tolerance):
            raise ValueError("preference weight exceeds 1")
        sums = self._w.sum(axis=(1, 2))
        if self.n_instructions and not np.allclose(sums, 1.0, atol=1e-6):
            worst = int(np.argmax(np.abs(sums - 1.0)))
            raise ValueError(
                f"instruction {worst} weights sum to {sums[worst]:.6f}, expected 1"
            )

    # ------------------------------------------------------------------
    # Rendering (Figure 4 style maps)
    # ------------------------------------------------------------------

    def render_cluster_map(self, instructions: Optional[Sequence[int]] = None) -> str:
        """ASCII rendition of the cluster preference map (Figure 4).

        One row per instruction, one column per cluster; darker glyphs
        mean weaker preference, ``#`` strongest.
        """
        glyphs = " .:-=+*%@#"
        rows = []
        marg = self.cluster_marginals()
        subset: Iterable[int] = (
            range(self.n_instructions) if instructions is None else instructions
        )
        for i in subset:
            total = marg[i].sum()
            shares = marg[i] / total if total > 0 else marg[i]
            cells = "".join(
                glyphs[min(len(glyphs) - 1, int(s * (len(glyphs) - 1) / max(shares.max(), 1e-12)))]
                if shares.max() > 0
                else glyphs[0]
                for s in shares
            )
            rows.append(f"{i:4d} |{cells}|")
        return "\n".join(rows)

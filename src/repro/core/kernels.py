"""Vectorized numpy kernels for the convergent scheduling passes.

The passes in :mod:`repro.core.passes` are *specified* as per-instruction
scalar update rules (docs/passes.md quotes each one).  Executing those
rules instruction-by-instruction in Python dominated compile time —
BENCH_1/BENCH_2 attribute ~80% of convergent compile seconds to the pass
loop — so this module re-expresses every registered pass as whole-matrix
numpy operations over ``W[i, c, t]``:

* a :class:`RegionIndex` precomputes, once per region, the index
  structures the kernels share: level/earliest-start/tail arrays,
  CSR-style predecessor/successor/neighbor arrays, grand-neighbor
  arrays, preplacement and feasibility masks, and register-liveness
  spans;
* each pass body becomes masked broadcasting, fancy-indexed multiplies,
  ``np.add.at`` scatter accumulation, or batched row blends.

docs/kernels.md derives each kernel from its scalar rule.  The kernels
are **bit-compatible** with the scalar reference implementations (kept
as ``_reference_update`` on each pass class): where floating-point
summation order matters the kernels reproduce the reference order
exactly — see :func:`gathered_row_sums` for the one place this needs
care — so the vectorized scheduler produces byte-identical schedules,
not merely statistically equivalent ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..ir.ddg import DataDependenceGraph
from ..machine.machine import FUNC_CLASS_ROW, Machine

# ``feasible_clusters`` is the scalar form of :func:`feasibility_mask`.
# It stays importable here because perfbench/layers.py counts calls to
# it on every module of the convergent path, this one included.
from ..schedulers.list_scheduler import feasible_clusters as feasible_clusters
from .weights import PreferenceMatrix


# ----------------------------------------------------------------------
# Region index
# ----------------------------------------------------------------------


@dataclass
class RegionIndex:
    """Per-region index structures shared by the pass kernels.

    Built once per :class:`~repro.core.passes.PassContext` (the graph is
    read-only during a converge run — every registered pass declares the
    ``readonly_ddg`` contract) and reused by every pass and iteration.

    Attributes:
        n: Number of instructions.
        n_clusters: Number of clusters on the target machine.
        est: ``(N,)`` earliest start times (``lp`` in the paper).
        tail: ``(N,)`` longest successor chains (``ls``).
        levels: ``(N,)`` hop depths (the paper's ``level(i)``).
        cpl: Latency-weighted critical path length.
        adj_indptr: CSR row pointer for the undirected adjacency.
        adj_indices: CSR column indices, in exact
            :meth:`~repro.ir.ddg.DataDependenceGraph.neighbors` order
            (COMM's summation order depends on it).
        grand_indptr: CSR row pointer for two-hop neighborhoods.
        grand_indices: Sorted two-hop neighbors, excluding the node
            itself and its direct neighbors (COMM's grand set).
        succ_lists: Successor uids per node, in edge order, duplicates
            preserved (PATHPROP walks inspect candidates in this order).
        pred_lists: Predecessor uids per node, in edge order.
        succ_indptr: CSR row pointer over the flattened ``succ_lists``.
        succ_indices: Flattened ``succ_lists`` (edge order, duplicates
            preserved) — PATHPROP's first-min step tables are built
            from these.
        pred_indptr: CSR row pointer over the flattened ``pred_lists``.
        pred_indices: Flattened ``pred_lists``.
        homes: ``(N,)`` home cluster per instruction, ``-1`` when free.
        preplaced: Ascending uids of preplaced instructions.
        pseudo: ``(N,)`` bool mask of pseudo instructions.
        feasible: ``(N, C)`` bool mask — True where
            :func:`~repro.schedulers.list_scheduler.feasible_clusters`
            allows the placement (built by :func:`feasibility_mask`).
        reg_mask: ``(N,)`` bool mask of value-defining, non-pseudo
            instructions (the ones REGPRESS charges pressure for).
        reg_span: ``(N,)`` live-range spans in levels (valid where
            ``reg_mask`` is set, zero elsewhere).
        reg_horizon: Level count used to normalize spans.
    """

    n: int
    n_clusters: int
    est: np.ndarray
    tail: np.ndarray
    levels: np.ndarray
    cpl: int
    adj_indptr: np.ndarray
    adj_indices: np.ndarray
    grand_indptr: np.ndarray
    grand_indices: np.ndarray
    succ_lists: List[List[int]]
    pred_lists: List[List[int]]
    succ_indptr: np.ndarray
    succ_indices: np.ndarray
    pred_indptr: np.ndarray
    pred_indices: np.ndarray
    homes: np.ndarray
    preplaced: np.ndarray
    pseudo: np.ndarray
    feasible: np.ndarray
    reg_mask: np.ndarray
    reg_span: np.ndarray
    reg_horizon: int


def _csr(lists: Sequence[Sequence[int]]) -> tuple:
    indptr = np.zeros(len(lists) + 1, dtype=np.int64)
    if lists:
        np.cumsum([len(row) for row in lists], out=indptr[1:])
    flat = [v for row in lists for v in row]
    return indptr, np.asarray(flat, dtype=np.int64)


def build_region_index(ddg: DataDependenceGraph, machine: Machine) -> "RegionIndex":
    """Precompute the :class:`RegionIndex` for one region.

    Args:
        ddg: The region's dependence graph (must stay unmodified for as
            long as the index is used — the ``readonly_ddg`` contract).
        machine: The target machine model (supplies cluster count and
            placement feasibility).

    Returns:
        A fully populated :class:`RegionIndex`.
    """
    n = len(ddg)
    n_clusters = machine.n_clusters
    est = np.asarray(ddg.earliest_start(), dtype=np.int64)
    tail = np.asarray(ddg.tail_length(), dtype=np.int64)
    levels = np.asarray(ddg.levels(), dtype=np.int64)

    adj_lists = [ddg.neighbors(i) for i in range(n)]
    adj_indptr, adj_indices = _csr(adj_lists)
    grand_lists: List[List[int]] = []
    for i in range(n):
        grand: set = set()
        for nb in adj_lists[i]:
            grand.update(adj_lists[nb])
        grand.discard(i)
        grand.difference_update(adj_lists[i])
        grand_lists.append(sorted(grand))
    grand_indptr, grand_indices = _csr(grand_lists)

    succ_lists = [[e.dst for e in ddg.successors(i)] for i in range(n)]
    pred_lists = [[e.src for e in ddg.predecessors(i)] for i in range(n)]
    succ_indptr, succ_indices = _csr(succ_lists)
    pred_indptr, pred_indices = _csr(pred_lists)

    homes = np.full(n, -1, dtype=np.int64)
    pseudo = np.zeros(n, dtype=bool)
    reg_mask = np.zeros(n, dtype=bool)
    reg_span = np.zeros(n, dtype=np.int64)
    lv = ddg.levels()
    for inst in ddg:
        uid = inst.uid
        if inst.home_cluster is not None:
            homes[uid] = inst.home_cluster
        pseudo[uid] = inst.is_pseudo
        if inst.defines_value and not inst.is_pseudo:
            reg_mask[uid] = True
            consumers = [e.dst for e in ddg.successors(uid) if e.carries_value]
            last_use = max((lv[c] for c in consumers), default=lv[uid])
            reg_span[uid] = max(1, last_use - lv[uid] + 1)
    reg_horizon = max(lv) + 1 if lv else 1

    return RegionIndex(
        n=n,
        n_clusters=n_clusters,
        est=est,
        tail=tail,
        levels=levels,
        cpl=ddg.critical_path_length(),
        adj_indptr=adj_indptr,
        adj_indices=adj_indices,
        grand_indptr=grand_indptr,
        grand_indices=grand_indices,
        succ_lists=succ_lists,
        pred_lists=pred_lists,
        succ_indptr=succ_indptr,
        succ_indices=succ_indices,
        pred_indptr=pred_indptr,
        pred_indices=pred_indices,
        homes=homes,
        preplaced=np.asarray(ddg.preplaced(), dtype=np.int64),
        pseudo=pseudo,
        feasible=feasibility_mask(ddg, machine),
        reg_mask=reg_mask,
        reg_span=reg_span,
        reg_horizon=reg_horizon,
    )


def feasibility_mask(ddg: DataDependenceGraph, machine: Machine) -> np.ndarray:
    """``(N, C)`` bool mask of legal placements, one row per instruction.

    Row ``i`` is True exactly on the in-range clusters of
    :func:`~repro.schedulers.list_scheduler.feasible_clusters`: the
    machine's feasibility table row for the instruction's functional
    class, replaced by a single cluster where a home cluster or a hard
    memory-bank affinity pins the instruction.

    Args:
        ddg: The region's dependence graph.
        machine: The target machine model.

    Returns:
        The ``(N, C)`` mask (a fresh array the caller may modify).
    """
    n_clusters = machine.n_clusters
    hard_banks = machine.memory_affinity == "hard"
    rows: List[int] = []
    pinned: List[int] = []
    pins: List[int] = []
    for inst in ddg:
        rows.append(FUNC_CLASS_ROW[inst.func_class])
        if inst.home_cluster is not None:
            pinned.append(inst.uid)
            pins.append(inst.home_cluster)
        elif hard_banks and inst.bank is not None and inst.is_memory:
            pinned.append(inst.uid)
            pins.append(machine.bank_home(inst.bank))
    mask: np.ndarray = machine.class_mask[np.asarray(rows, dtype=np.int64)]
    if pinned:
        at = np.asarray(pinned, dtype=np.int64)
        to = np.asarray(pins, dtype=np.int64)
        mask[at] = False
        legal = (to >= 0) & (to < n_clusters)
        mask[at[legal], to[legal]] = True
    return mask


# ----------------------------------------------------------------------
# Shared primitives
# ----------------------------------------------------------------------


def grouped_hop_distances(
    indptr: np.ndarray,
    indices: np.ndarray,
    groups: Sequence[Sequence[int]],
    n: int,
    max_depth: Optional[int] = None,
) -> np.ndarray:
    """Hop distances from ``k`` source groups at once, as a ``(k, n)`` array.

    A level-synchronous BFS over the CSR graph ``(indptr, indices)``
    whose frontier is a flat array of ``(group, node)`` pairs, so one
    sweep serves every group — this is what lets LEVEL compute all of a
    band's member distances in a handful of numpy calls instead of one
    Python BFS per allocation.

    Row ``g`` equals
    :meth:`~repro.ir.ddg.DataDependenceGraph.undirected_distances` of
    ``groups[g]``: unreachable nodes — and, with ``max_depth``, nodes
    further than it — get distance ``n``.  (Multi-source BFS distance is
    the elementwise minimum of the member rows, a fact LEVEL's kernel
    relies on to update bin distances incrementally.)

    Args:
        indptr: CSR row pointer of the (symmetric) adjacency.
        indices: CSR column indices.
        groups: Source uid sets, one row of output per group.
        n: Number of nodes in the graph.
        max_depth: Stop expanding past this distance (``None``: exact).

    Returns:
        ``(len(groups), n)`` int64 distance matrix.
    """
    k = len(groups)
    dist = np.full((k, n), n, dtype=np.int64)
    if k == 0 or n == 0:
        return dist
    lengths = [len(g) for g in groups]
    gsrc = np.repeat(np.arange(k, dtype=np.int64), lengths)
    node = np.asarray([s for g in groups for s in g], dtype=np.int64)
    if node.size == 0:
        return dist
    # The frontier is carried as flat keys ``group * n + node`` into
    # ``dist`` viewed as one row.
    flat_dist = dist.reshape(-1)
    key = gsrc * n + node
    flat_dist[key] = 0
    owner = np.empty(k * n, dtype=np.int64)
    cap = n if max_depth is None else min(max_depth, n)
    depth = 0
    while key.size and depth < cap:
        node = key % n
        counts = indptr[node + 1] - indptr[node]
        total = int(counts.sum())
        if total == 0:
            break
        starts = indptr[node]
        exclusive = np.cumsum(counts) - counts
        flat = (
            np.arange(total, dtype=np.int64)
            - np.repeat(exclusive, counts)
            + np.repeat(starts, counts)
        )
        key = np.repeat(key - node, counts) + indices[flat]
        key = key[flat_dist[key] > depth + 1]
        if key.size == 0:
            break
        flat_dist[key] = depth + 1
        # The next frontier is the set of keys just assigned, which may
        # repeat (two frontier nodes sharing a neighbour).  Stamp each
        # slot with the position of a writer and keep the one position
        # numpy left there: a dedupe without a sort or a matrix scan.
        # Frontier order never changes integer hop counts.
        stamp = np.arange(key.size, dtype=np.int64)
        owner[key] = stamp
        key = key[owner[key] == stamp]
        depth += 1
    return dist


def hop_distances(
    index: RegionIndex,
    sources: Sequence[int],
    max_depth: Optional[int] = None,
) -> np.ndarray:
    """Single-group convenience wrapper over :func:`region_hop_distances`.

    Args:
        index: The region's :class:`RegionIndex`.
        sources: Source uids (multi-source BFS).
        max_depth: Stop expanding past this distance (``None``: exact).

    Returns:
        ``(n,)`` int64 distances, unreachable = ``index.n``.
    """
    return region_hop_distances(index, [list(sources)], max_depth)[0]


def region_hop_distances(
    index: RegionIndex,
    groups: Sequence[Sequence[int]],
    max_depth: Optional[int] = None,
) -> np.ndarray:
    """Grouped hop distances over the region's adjacency.

    :func:`grouped_hop_distances` on the index's CSR adjacency.

    Args:
        index: The region's :class:`RegionIndex`.
        groups: Source uid sets, one row of output per group.
        max_depth: Stop expanding past this distance (``None``: exact).

    Returns:
        ``(len(groups), n)`` int64 distance matrix, unreachable (or
        beyond ``max_depth``) = ``index.n``.
    """
    return grouped_hop_distances(
        index.adj_indptr, index.adj_indices, groups, index.n, max_depth
    )


def gathered_row_sums(
    values: np.ndarray, indptr: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """Per-segment sums of gathered rows: ``out[s] = Σ values[indices[s]]``.

    Bit-compatible with the scalar reference
    ``values[list(indices_of_s)].sum(axis=0)`` executed per segment:

    * for two or more columns numpy reduces the gathered (strided) axis
      sequentially, and an unbuffered ``np.add.at`` accumulates in the
      same index order, so the two produce identical float64 bits;
    * for a single column numpy switches to pairwise summation, whose
      grouping ``np.add.at`` cannot reproduce — that case falls back to
      a literal per-segment ``np.sum``.

    Args:
        values: ``(m, width)`` float rows to gather from.
        indptr: CSR row pointer delimiting the segments.
        indices: Concatenated row indices of every segment.

    Returns:
        ``(len(indptr) - 1, width)`` sums; empty segments are zero.
    """
    n_seg = indptr.size - 1
    out = np.zeros((n_seg, values.shape[1]), dtype=values.dtype)
    if indices.size == 0:
        return out
    lengths = np.diff(indptr)
    if values.shape[1] == 1:
        for s in np.flatnonzero(lengths):
            out[s] = values[indices[indptr[s] : indptr[s + 1]]].sum(axis=0)
        return out
    seg = np.repeat(np.arange(n_seg, dtype=np.int64), lengths)
    np.add.at(out, seg, values[indices])
    return out


def _require_nonnegative(factor: float) -> None:
    if factor < 0:
        raise ValueError("scale factor must be non-negative")


# ----------------------------------------------------------------------
# Per-pass kernels (one per registered pass; derivations in
# docs/kernels.md, scalar references on the pass classes)
# ----------------------------------------------------------------------


def init_time_kernel(index: RegionIndex, matrix: PreferenceMatrix) -> None:
    """INITTIME: zero infeasible time slots and clusters in one mask.

    ``W[i, c, t] = 0`` unless ``lp(i) <= t <= CPL-1-ls(i)`` (clamped to
    the matrix horizon) and cluster ``c`` can legally execute ``i``.

    Args:
        index: The region's :class:`RegionIndex`.
        matrix: The preference matrix to update (normalized on return).
    """
    w = matrix.data
    if w.shape[0]:
        horizon = matrix.n_time_slots
        first = np.minimum(index.est, horizon - 1)
        last = np.maximum(np.minimum(index.cpl - 1 - index.tail, horizon - 1), first)
        slots = np.arange(horizon, dtype=np.int64)
        keep_time = (slots >= first[:, None]) & (slots <= last[:, None])
        keep = keep_time[:, None, :] & index.feasible[:, :, None]
        w[~keep] = 0.0
        matrix.touch()
    matrix.normalize()


def noise_kernel(
    matrix: PreferenceMatrix, rng: np.random.Generator, amount: float
) -> None:
    """NOISE: add mean-scaled uniform noise to every nonzero weight.

    Args:
        matrix: The preference matrix to update (normalized on return).
        rng: The context RNG (consumed identically to the reference).
        amount: Noise amplitude relative to each row's mean weight.
    """
    w = matrix.data
    if w.size == 0:
        return
    mean = w.sum(axis=(1, 2), keepdims=True) / max(
        1, matrix.n_clusters * matrix.n_time_slots
    )
    noise = rng.random(w.shape) * amount * mean
    w += noise * (w > 0.0)
    matrix.touch()
    matrix.normalize()


def place_kernel(index: RegionIndex, matrix: PreferenceMatrix, boost: float) -> None:
    """PLACE: boost every preplaced instruction's home cluster.

    Args:
        index: The region's :class:`RegionIndex`.
        matrix: The preference matrix to update (normalized on return).
        boost: Multiplier for the ``(uid, home)`` weight rows.
    """
    pre = index.preplaced
    if pre.size:
        _require_nonnegative(boost)
        matrix.data[pre, index.homes[pre], :] *= boost
        matrix.touch()
    matrix.normalize()


def first_kernel(matrix: PreferenceMatrix, boost: float) -> None:
    """FIRST: boost cluster 0 for every instruction.

    Args:
        matrix: The preference matrix to update (normalized on return).
        boost: Multiplier for the cluster-0 plane.
    """
    if matrix.n_instructions:
        _require_nonnegative(boost)
        matrix.data[:, 0, :] *= boost
        matrix.touch()
    matrix.normalize()


def emphcp_kernel(index: RegionIndex, matrix: PreferenceMatrix, boost: float) -> None:
    """EMPHCP: boost each instruction's level time slot.

    Args:
        index: The region's :class:`RegionIndex`.
        matrix: The preference matrix to update (normalized on return).
        boost: Multiplier for the ``(i, :, level(i))`` entries.
    """
    n = matrix.n_instructions
    if n:
        _require_nonnegative(boost)
        slot = np.minimum(index.levels, matrix.n_time_slots - 1)
        matrix.data[np.arange(n), :, slot] *= boost
        matrix.touch()
    matrix.normalize()


def scale_rows_toward_cluster(
    matrix: PreferenceMatrix, uids: Sequence[int], cluster: int, boost: float
) -> None:
    """Scale several instructions' weights toward one cluster at once.

    Batched form of per-uid ``matrix.scale(uid, boost, cluster=...)``
    used by PATH for each path segment; the uids must be distinct (a
    path never repeats a node), making the batch bit-identical to the
    sequential loop.

    Args:
        matrix: The preference matrix to update (caller normalizes).
        uids: Distinct instruction rows to scale.
        cluster: The cluster column to scale.
        boost: Non-negative multiplier.
    """
    if not len(uids):
        return
    _require_nonnegative(boost)
    matrix.data[np.asarray(uids, dtype=np.int64), cluster, :] *= boost
    matrix.touch()


def comm_kernel(
    index: RegionIndex,
    matrix: PreferenceMatrix,
    include_grand: bool,
    sharpen: float,
) -> None:
    """COMM: multiply by neighbor cluster-marginal attraction, then sharpen.

    ``attraction[i] = Σ_{j ∈ N(i)} M[j] + 0.5 · Σ_{j ∈ G(i)} M[j]`` over
    the pre-pass cluster marginals ``M``, computed with
    :func:`gathered_row_sums` in the adjacency/grand CSR order so the
    summation order matches the scalar reference bit-for-bit.

    Args:
        index: The region's :class:`RegionIndex`.
        matrix: The preference matrix to update (normalized on return).
        include_grand: Add two-hop neighbors at half weight.
        sharpen: Post-normalize multiplier for each instruction's
            preferred ``(cluster, time)`` cell (skipped when <= 1).
    """
    n = index.n
    if n == 0:
        return
    before = matrix.cluster_marginals().copy()
    attraction = gathered_row_sums(before, index.adj_indptr, index.adj_indices)
    if include_grand:
        grand = gathered_row_sums(before, index.grand_indptr, index.grand_indices)
        has_grand = np.diff(index.grand_indptr) > 0
        attraction[has_grand] += 0.5 * grand[has_grand]
    has_info = attraction.sum(axis=1) > 0
    factors = np.where(has_info[:, None], attraction, 1.0)
    matrix.data[...] *= factors[:, :, None]
    matrix.touch()
    matrix.normalize()
    if sharpen > 1.0:
        c = np.argmax(matrix.cluster_marginals(), axis=1)
        t = np.argmax(matrix.time_marginals(), axis=1)
        matrix.data[np.arange(n), c, t] *= sharpen
        matrix.touch()
        matrix.normalize()


def placeprop_kernel(index: RegionIndex, matrix: PreferenceMatrix) -> None:
    """PLACEPROP: divide by hop distance to each cluster's closest anchor.

    One batched BFS (one group per cluster that has anchors) replaces
    the per-cluster Python BFS; clusters without anchors divide by the
    graph size ``n``, preplaced rows divide by 1.

    Args:
        index: The region's :class:`RegionIndex`.
        matrix: The preference matrix to update (normalized on return).
    """
    pre = index.preplaced
    if pre.size == 0:
        return
    n, n_clusters = index.n, index.n_clusters
    homes_pre = index.homes[pre]
    present = [c for c in range(n_clusters) if bool(np.any(homes_pre == c))]
    divisors = np.full((n, n_clusters), float(n))
    dist = region_hop_distances(
        index, [pre[homes_pre == c].tolist() for c in present]
    )
    for row, c in enumerate(present):
        divisors[:, c] = np.maximum(dist[row], 1)
    preplaced_mask = np.zeros(n, dtype=bool)
    preplaced_mask[pre] = True
    divisors[preplaced_mask] = 1.0
    matrix.data[...] /= divisors[:, :, None]
    matrix.touch()
    matrix.normalize()


def load_balance_kernel(matrix: PreferenceMatrix, epsilon: float) -> None:
    """LOAD: divide each cluster plane by its expected load.

    Args:
        matrix: The preference matrix to update (normalized on return).
        epsilon: Additive smoothing keeping idle clusters finite.
    """
    marginals = matrix.cluster_marginals()
    if matrix.n_instructions == 0:
        load = np.zeros(matrix.n_clusters) + epsilon
    else:
        load = marginals.sum(axis=0) + epsilon
    matrix.data[...] /= load[None, :, None]
    matrix.touch()
    matrix.normalize()


def register_pressure_kernel(
    index: RegionIndex, matrix: PreferenceMatrix
) -> np.ndarray:
    """REGPRESS: expected register pressure per cluster.

    ``pressure[c] = Σ_i M[i, c] · span(i) / horizon`` over value-defining
    non-pseudo instructions, accumulated with an unbuffered
    ``np.add.at`` in uid order — the exact op order of the reference's
    sequential ``pressure += row`` loop.

    Args:
        index: The region's :class:`RegionIndex`.
        matrix: The matrix whose cluster marginals weight the spans.

    Returns:
        ``(n_clusters,)`` expected pressure.
    """
    out = np.zeros((1, index.n_clusters))
    sel = np.flatnonzero(index.reg_mask)
    if sel.size:
        coef = index.reg_span[sel] / index.reg_horizon
        rows = matrix.cluster_marginals()[sel] * coef[:, None]
        np.add.at(out, np.zeros(sel.size, dtype=np.intp), rows)
    return out[0]


def pathprop_kernel(
    index: RegionIndex, matrix: PreferenceMatrix, threshold: float
) -> None:
    """PATHPROP: propagate confident rows along dependence paths.

    The walk structure depends only on the *pre-pass* confidences, the
    graph, and preplacement — never on weights mutated mid-pass — so
    each source's down/up walk is computed as a Python chain over the
    index's edge lists.  The blends ``W[r] = keep·W[r] +
    (1-keep)·W[source]`` of consecutive walks are batched across
    sources into one fancy-indexed assignment (``_flush``) while no
    blend can observe another, so every source still reads what the
    sequential reference gives it: an earlier source's blends
    legitimately change what a later source propagates.

    Args:
        index: The region's :class:`RegionIndex`.
        matrix: The preference matrix to update (normalized on return).
        threshold: Minimum (finite) confidence for an instruction to
            become a propagation source.
    """
    conf = matrix.confidences()
    sources = [
        i
        for i in range(index.n)
        if conf[i] > threshold and not np.isinf(conf[i])
    ]
    seen = set(sources)
    sources.extend(i for i in index.preplaced.tolist() if i not in seen)
    sources.sort(key=lambda i: -min(conf[i], 1e9))
    if not sources:
        matrix.normalize()
        return
    down = _first_min_steps(index.succ_indptr, index.succ_indices, conf, index)
    up = _first_min_steps(index.pred_indptr, index.pred_indices, conf, index)
    w = matrix.data
    keep = 0.5
    # Blends from consecutive sources are batched into one fancy-indexed
    # assignment while they cannot observe each other: numpy evaluates
    # the whole right-hand side from pre-batch weights, which matches
    # the sequential reference as long as (a) no row is written twice in
    # a batch and (b) no batch source's own row was written earlier in
    # the batch.  Either conflict flushes first, so every source still
    # reads exactly what the reference would have it read.
    pend_rows: List[int] = []
    pend_src: List[int] = []
    written: set = set()

    def _flush() -> None:
        if pend_rows:
            idx = np.asarray(pend_rows, dtype=np.int64)
            src = np.asarray(pend_src, dtype=np.int64)
            w[idx] = keep * w[idx] + (1.0 - keep) * w[src]
            matrix.touch()
        pend_rows.clear()
        pend_src.clear()
        written.clear()

    for source in sources:
        rows = _pathprop_walk(down, source, conf[source])
        rows += _pathprop_walk(up, source, conf[source])
        # Down-walk rows are descendants and up-walk rows ancestors, so
        # the combined row set is distinct and excludes the source.
        if not rows:
            continue
        if source in written or not written.isdisjoint(rows):
            _flush()
        pend_rows += rows
        pend_src += [source] * len(rows)
        written.update(rows)
    _flush()
    matrix.normalize()


def _first_min_steps(
    indptr: np.ndarray, indices: np.ndarray, conf: np.ndarray, index: RegionIndex
) -> tuple:
    """Per-uid best PATHPROP step in one direction: ``(next, next_conf)``.

    The reference's ``next_on_path`` scans a uid's candidates for the
    first strict improvement below the source confidence — which is the
    first-in-edge-order occurrence of the minimum candidate confidence,
    provided that minimum beats the source.  The minimum does not depend
    on the source, so it is computed once per direction for every uid (a
    stable lexsort by ``(uid, conf)`` keeps edge order on ties); each
    walk step then reduces to one table lookup plus a threshold test.
    Homed candidates never qualify, so their confidence is masked to
    ``inf`` — matching the reference's skip.

    Args:
        indptr: CSR row pointer of the direction's edge lists.
        indices: Flattened candidate uids, edge order preserved.
        conf: Frozen pre-pass confidences.
        index: The region's :class:`RegionIndex` (supplies homes and n).

    Returns:
        ``(next, next_conf)`` int64/float64 arrays of shape ``(n,)``;
        ``next[uid] == -1`` when uid has no eligible candidate.
    """
    n = index.n
    nxt = np.full(n, -1, dtype=np.int64)
    nxt_conf = np.full(n, np.inf)
    if indices.size == 0:
        return nxt, nxt_conf
    cand_conf = np.where(index.homes[indices] < 0, conf[indices], np.inf)
    seg = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    order = np.lexsort((np.arange(indices.size), cand_conf, seg))
    firsts_seg, firsts_pos = np.unique(seg[order], return_index=True)
    best = order[firsts_pos]
    nxt[firsts_seg] = indices[best]
    nxt_conf[firsts_seg] = cand_conf[best]
    return nxt, nxt_conf


def _pathprop_walk(steps: tuple, source: int, source_conf: float) -> List[int]:
    """The chain of uids a PATHPROP source blends into, in walk order."""
    nxt, nxt_conf = steps
    walk: List[int] = []
    visited = {source}
    current = source
    while True:
        # Eligible next hop: the uid's precomputed first-min candidate,
        # if it beats the *source* confidence (the reference re-anchors
        # each step's filter at the source, not the previous hop).
        if not nxt_conf[current] < source_conf:
            break
        step = int(nxt[current])
        if step in visited:
            break
        visited.add(step)
        walk.append(step)
        current = step
    return walk


def level_distribute_kernel(
    index: RegionIndex,
    matrix: PreferenceMatrix,
    stride: int,
    granularity: int,
    threshold: float,
    boost: float,
) -> None:
    """LEVEL: distribute each level band's instructions over cluster bins.

    For each band, the hop distances of *every* band member are computed
    in one :func:`grouped_hop_distances` sweep; per-bin distances are
    then maintained incrementally (``np.minimum`` with the new member's
    row — multi-source BFS distance is the min of single-source rows),
    which replaces the reference's per-allocation Python BFS while
    reproducing its far/near partition and tie-breaking exactly.

    Args:
        index: The region's :class:`RegionIndex`.
        matrix: The preference matrix to update (normalized on return).
        stride: Levels per band.
        granularity: Hop radius within which an instruction "joins" a
            bin instead of being dealt round-robin.
        threshold: Confidence above which an instruction seeds the bin
            of its preferred cluster.
        boost: Multiplier toward each member's bin cluster.
    """
    levels = index.levels
    if levels.size == 0:
        return
    confidences = matrix.confidences()
    preferred = matrix.preferred_clusters()
    max_level = int(levels.max())
    for band_start in range(0, max_level + 1, stride):
        in_band = (
            (levels >= band_start)
            & (levels < band_start + stride)
            & ~index.pseudo
        )
        band = np.flatnonzero(in_band)
        if band.size > 1:
            _distribute_band_kernel(
                index, matrix, band, confidences, preferred,
                granularity, threshold, boost,
            )
    matrix.normalize()


def _distribute_band_kernel(
    index: RegionIndex,
    matrix: PreferenceMatrix,
    band: np.ndarray,
    confidences: np.ndarray,
    preferred: Sequence[int],
    granularity: int,
    threshold: float,
    boost: float,
) -> None:
    """Allocate one band's instructions to bins and boost accordingly."""
    n, n_bins = index.n, index.n_clusters
    members = band.tolist()
    bins: List[List[int]] = [[] for _ in range(n_bins)]
    remaining: List[int] = []
    for uid in members:
        home = int(index.homes[uid])
        if home >= 0:
            bins[home].append(uid)
        elif confidences[uid] > threshold:
            bins[preferred[uid]].append(uid)
        else:
            remaining.append(uid)

    # One BFS row per band member, all in a single batched sweep.  The
    # depth cap mirrors the reference: beyond the granularity ball the
    # exact distance only breaks far-candidate ties, which matter on
    # small graphs but are capped on big ones.
    max_depth = granularity + 2 if n > 400 else None
    row_of: Dict[int, int] = {uid: k for k, uid in enumerate(members)}
    rows = region_hop_distances(
        index, [[uid] for uid in members], max_depth
    ).astype(np.float64)

    # bin_dist[b] == multi-source BFS distances of bins[b] (inf when the
    # bin is empty), maintained by elementwise min as members join;
    # closest[i] == min over bins, maintained the same way (both only
    # ever decrease, so incremental minima stay exact).
    bin_dist = np.full((n_bins, n), np.inf)
    for b, seeded in enumerate(bins):
        if seeded:
            np.min(
                rows[[row_of[uid] for uid in seeded]], axis=0, out=bin_dist[b]
            )
    closest = bin_dist.min(axis=0)

    rr = 0
    while remaining:
        rem = np.asarray(remaining, dtype=np.int64)
        far_mask = closest[rem] > granularity
        if far_mask.any():
            b = rr % n_bins
            rr += 1
            far = rem[far_mask]
            if not bins[b]:
                chosen = int(far[0])
            else:
                chosen = int(far[np.argmin(bin_dist[b, far])])
        else:
            # Every remaining uid is near some bin; the reference takes
            # them in remaining order, joining the closest bin (lowest
            # index on ties — argmin over inf-padded rows matches).
            chosen = remaining[0]
            b = int(np.argmin(bin_dist[:, chosen]))
        bins[b].append(chosen)
        np.minimum(bin_dist[b], rows[row_of[chosen]], out=bin_dist[b])
        np.minimum(closest, bin_dist[b], out=closest)
        remaining.remove(chosen)

    w = matrix.data
    for b, bin_members in enumerate(bins):
        if bin_members:
            _require_nonnegative(boost)
            w[np.asarray(bin_members, dtype=np.int64), b, :] *= boost
    matrix.touch()

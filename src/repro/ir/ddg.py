"""Data dependence graphs (DDGs).

A :class:`DataDependenceGraph` is the scheduler's view of one scheduling
unit: a DAG whose nodes are :class:`~repro.ir.instruction.Instruction`
objects and whose edges are
:class:`~repro.ir.instruction.DependenceEdge` objects carrying latencies.

The graph exposes the structural queries every pass and scheduler in this
repository needs: topological order, per-node earliest/latest start times
(``lp`` and ``CPL - ls`` in the paper's INITTIME notation), levels,
critical paths, undirected hop distances, and the set of preplaced
instructions.  Expensive analyses are computed lazily and cached; any
mutation invalidates the caches.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .instruction import DependenceEdge, Instruction
from .opcode import LatencyModel, Opcode


class GraphError(ValueError):
    """Raised for structurally invalid graphs (cycles, dangling edges)."""


class DataDependenceGraph:
    """A DAG of instructions with latency-weighted dependence edges.

    Instructions are indexed by dense ``uid``s in ``[0, len(graph))``.

    Args:
        latency_model: Supplies result latencies when edges are added via
            :meth:`add_dependence` without an explicit latency.
        name: Optional label used in reports.
    """

    def __init__(
        self,
        latency_model: Optional[LatencyModel] = None,
        name: str = "",
    ) -> None:
        self.name = name
        self.latency_model = latency_model or LatencyModel()
        self._instructions: List[Instruction] = []
        self._succ: List[List[DependenceEdge]] = []
        self._pred: List[List[DependenceEdge]] = []
        self._dirty = True
        # Lazy caches
        self._topo: Optional[List[int]] = None
        self._earliest: Optional[List[int]] = None
        self._tail: Optional[List[int]] = None
        self._cpl: Optional[int] = None
        self._levels: Optional[List[int]] = None
        self._adjacency: Optional[List[List[int]]] = None
        self._instruction_view: Optional[Tuple[Instruction, ...]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_instruction(self, instruction: Instruction) -> int:
        """Append ``instruction``; its ``uid`` must equal the next index."""
        if instruction.uid != len(self._instructions):
            raise GraphError(
                f"expected uid {len(self._instructions)}, got {instruction.uid}"
            )
        self._instructions.append(instruction)
        self._succ.append([])
        self._pred.append([])
        self._invalidate()
        return instruction.uid

    def new_instruction(self, opcode: Opcode, operands: Sequence[int] = (), **kw) -> Instruction:
        """Create an instruction with the next uid, add data edges from its
        operands, and return it.

        Keyword arguments are forwarded to :class:`Instruction`.
        """
        inst = Instruction(uid=len(self._instructions), opcode=opcode, operands=tuple(operands), **kw)
        self.add_instruction(inst)
        for src in inst.operands:
            self.add_dependence(src, inst.uid, kind="data")
        return inst

    def add_dependence(
        self,
        src: int,
        dst: int,
        latency: Optional[int] = None,
        kind: str = "data",
    ) -> DependenceEdge:
        """Add an edge ``src -> dst``.

        When ``latency`` is omitted it defaults to the result latency of
        the source instruction (1 for pure ordering edges on zero-latency
        pseudo-ops is clamped to 0).
        """
        self._check_uid(src)
        self._check_uid(dst)
        if latency is None:
            latency = self.latency_model.latency(self._instructions[src].opcode)
        edge = DependenceEdge(src=src, dst=dst, latency=latency, kind=kind)
        self._succ[src].append(edge)
        self._pred[dst].append(edge)
        self._invalidate()
        return edge

    def _check_uid(self, uid: int) -> None:
        if not 0 <= uid < len(self._instructions):
            raise GraphError(f"uid {uid} out of range [0, {len(self._instructions)})")

    def _invalidate(self) -> None:
        self._dirty = True
        self._topo = None
        self._earliest = None
        self._tail = None
        self._cpl = None
        self._levels = None
        self._adjacency = None
        self._instruction_view = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def instruction(self, uid: int) -> Instruction:
        """Return the instruction with the given ``uid``."""
        if not 0 <= uid < len(self._instructions):
            self._check_uid(uid)
        return self._instructions[uid]

    @property
    def instructions(self) -> Sequence[Instruction]:
        """All instructions, indexed by uid.

        An immutable tuple, memoized until the next mutation, so hot
        loops may read it instead of calling :meth:`instruction`.
        """
        if self._instruction_view is None:
            self._instruction_view = tuple(self._instructions)
        return self._instruction_view

    def successors(self, uid: int) -> List[DependenceEdge]:
        """Outgoing edges of ``uid``."""
        if not 0 <= uid < len(self._instructions):
            self._check_uid(uid)
        return list(self._succ[uid])

    def predecessors(self, uid: int) -> List[DependenceEdge]:
        """Incoming edges of ``uid``."""
        if not 0 <= uid < len(self._instructions):
            self._check_uid(uid)
        return list(self._pred[uid])

    def neighbors(self, uid: int) -> List[int]:
        """uids adjacent to ``uid`` in either direction (no duplicates).

        The adjacency structure is memoized (and invalidated on
        mutation) because the distance-based passes BFS over it heavily.
        """
        if self._adjacency is None:
            adjacency: List[List[int]] = []
            for node in range(len(self)):
                seen: Dict[int, None] = {}
                for e in self._pred[node]:
                    seen.setdefault(e.src)
                for e in self._succ[node]:
                    seen.setdefault(e.dst)
                adjacency.append(list(seen))
            self._adjacency = adjacency
        return self._adjacency[uid]

    def roots(self) -> List[int]:
        """uids with no predecessors."""
        return [i for i in range(len(self)) if not self._pred[i]]

    def leaves(self) -> List[int]:
        """uids with no successors."""
        return [i for i in range(len(self)) if not self._succ[i]]

    def preplaced(self) -> List[int]:
        """uids of preplaced instructions."""
        return [i.uid for i in self._instructions if i.preplaced]

    def edges(self) -> Iterator[DependenceEdge]:
        """All edges in the graph."""
        for out in self._succ:
            yield from out

    def edge_count(self) -> int:
        """Total number of edges."""
        return sum(len(out) for out in self._succ)

    # ------------------------------------------------------------------
    # Analyses
    # ------------------------------------------------------------------

    def topological_order(self) -> List[int]:
        """Return uids in topological order; raises GraphError on cycles."""
        if self._topo is None:
            indeg = [len(p) for p in self._pred]
            queue = deque(i for i, d in enumerate(indeg) if d == 0)
            order: List[int] = []
            while queue:
                u = queue.popleft()
                order.append(u)
                for e in self._succ[u]:
                    indeg[e.dst] -= 1
                    if indeg[e.dst] == 0:
                        queue.append(e.dst)
            if len(order) != len(self):
                raise GraphError(f"dependence graph {self.name!r} contains a cycle")
            self._topo = order
        return list(self._topo)

    def earliest_start(self) -> List[int]:
        """Per-uid longest latency-weighted path length from any root.

        This is ``lp`` in the paper's INITTIME description: the first time
        slot each instruction could ever occupy.
        """
        if self._earliest is None:
            est = [0] * len(self)
            for u in self.topological_order():
                for e in self._succ[u]:
                    reach = est[u] + e.latency
                    if reach > est[e.dst]:
                        est[e.dst] = reach
            self._earliest = est
        return list(self._earliest)

    def tail_length(self) -> List[int]:
        """Per-uid longest latency-weighted path to any leaf (``ls``)."""
        if self._tail is None:
            tail = [0] * len(self)
            for u in reversed(self.topological_order()):
                for e in self._succ[u]:
                    reach = e.latency + tail[e.dst]
                    if reach > tail[u]:
                        tail[u] = reach
            self._tail = tail
        return list(self._tail)

    def critical_path_length(self) -> int:
        """Latency-weighted critical path length (CPL), in time slots.

        The number of slots is ``max(earliest + tail) + 1`` so that a
        single instruction graph has CPL 1.
        """
        if self._cpl is None:
            if len(self) == 0:
                self._cpl = 0
            else:
                est = self.earliest_start()
                tail = self.tail_length()
                self._cpl = max(e + t for e, t in zip(est, tail)) + 1
        return self._cpl

    def slack(self) -> List[int]:
        """Per-uid scheduling slack: latest minus earliest feasible slot."""
        cpl = self.critical_path_length()
        est = self.earliest_start()
        tail = self.tail_length()
        return [(cpl - 1 - t) - e for e, t in zip(est, tail)]

    def levels(self) -> List[int]:
        """Per-uid unit-latency distance from the furthest root.

        This is the paper's ``level(i)``, used by LEVEL and EMPHCP.  It is
        *hop* depth, not latency-weighted depth.
        """
        if self._levels is None:
            lv = [0] * len(self)
            for u in self.topological_order():
                for e in self._succ[u]:
                    if lv[u] + 1 > lv[e.dst]:
                        lv[e.dst] = lv[u] + 1
            self._levels = lv
        return list(self._levels)

    def critical_path(self) -> List[int]:
        """Return one maximal-latency path as a list of uids, root first."""
        if len(self) == 0:
            return []
        est = self.earliest_start()
        tail = self.tail_length()
        cpl = self.critical_path_length() - 1
        # Start from a root on the critical path.
        current = max(
            (u for u in range(len(self)) if est[u] == 0),
            key=lambda u: tail[u],
        )
        path = [current]
        while True:
            nxt = None
            for e in self._succ[current]:
                if est[e.dst] == est[current] + e.latency and est[e.dst] + tail[e.dst] == cpl:
                    nxt = e.dst
                    break
            if nxt is None:
                break
            path.append(nxt)
            current = nxt
        return path

    def undirected_distances(
        self, sources: Iterable[int], max_depth: Optional[int] = None
    ) -> List[int]:
        """Multi-source BFS hop distance from ``sources``, ignoring edge
        direction.  Unreachable nodes — and, when ``max_depth`` is given,
        nodes further than it — get a distance of ``len(self)``.

        Used by PLACEPROP (distance to the closest preplaced instruction
        of each cluster) and LEVEL (distance between an instruction and a
        bin; LEVEL caps the depth since anything outside the granularity
        ball counts as simply "far").
        """
        inf = len(self)
        dist = [inf] * len(self)
        queue: deque[int] = deque()
        for s in sources:
            self._check_uid(s)
            if dist[s] != 0:
                dist[s] = 0
                queue.append(s)
        while queue:
            u = queue.popleft()
            if max_depth is not None and dist[u] >= max_depth:
                continue
            for v in self.neighbors(u):
                if dist[v] > dist[u] + 1:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def validate(self) -> None:
        """Check structural invariants; raise :class:`GraphError` if broken.

        Verifies acyclicity, operand/data-edge agreement, and that memory
        ordering edges connect memory operations.
        """
        self.topological_order()  # raises on cycles
        for inst in self._instructions:
            data_preds = {e.src for e in self._pred[inst.uid] if e.kind == "data"}
            for op in inst.operands:
                if op not in data_preds:
                    raise GraphError(
                        f"instruction {inst.label()} reads {op} but has no data edge from it"
                    )
            for op in inst.operands:
                if not self._instructions[op].defines_value:
                    raise GraphError(
                        f"instruction {inst.label()} reads {op}, which defines no value"
                    )
        for edge in self.edges():
            if edge.kind == "mem":
                src, dst = self._instructions[edge.src], self._instructions[edge.dst]
                if not (src.is_memory and dst.is_memory):
                    raise GraphError(
                        f"mem edge {edge.src}->{edge.dst} joins non-memory instructions"
                    )

    def summary(self) -> str:
        """One-line description used in reports and logs."""
        return (
            f"{self.name or 'ddg'}: {len(self)} instrs, {self.edge_count()} edges, "
            f"CPL {self.critical_path_length()}, {len(self.preplaced())} preplaced"
        )

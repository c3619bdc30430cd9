"""Control flow graphs and liveness analysis.

The schedulers in this repository operate on regions (traces); both
compilers in the paper *form* those regions from a control flow graph —
"Rawcc divides each input program into one or more scheduling traces."
This module supplies that front-end substrate: basic blocks of simple
variable-based statements, a CFG with edge probabilities and block
execution frequencies, and classic backward liveness analysis.  Trace
formation and trace-to-region lowering live in
:mod:`repro.ir.traces`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .opcode import Opcode


@dataclass(frozen=True)
class Stmt:
    """One statement: ``dest = opcode(args)`` over named variables.

    Attributes:
        dest: Variable defined, or ``None`` (stores define nothing).
        opcode: Operation.
        args: Variable names read, in operand order.
        bank: Memory bank for loads/stores (congruence input).
        array: Array identity for memory ordering.
        immediate: Constant payload for LI.
    """

    dest: Optional[str]
    opcode: Opcode
    args: Tuple[str, ...] = ()
    bank: Optional[int] = None
    array: str = ""
    immediate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.opcode is Opcode.STORE and self.dest is not None:
            raise ValueError("stores define no variable")
        if self.opcode is not Opcode.STORE and self.dest is None:
            raise ValueError(f"{self.opcode.value} must define a variable")


@dataclass
class BasicBlock:
    """A straight-line sequence of statements."""

    name: str
    stmts: List[Stmt] = field(default_factory=list)

    def add(self, stmt: Stmt) -> Stmt:
        """Append ``stmt`` and return it."""
        self.stmts.append(stmt)
        return stmt

    def defs(self) -> Set[str]:
        """Variables defined in this block."""
        return {s.dest for s in self.stmts if s.dest is not None}

    def upward_exposed_uses(self) -> Set[str]:
        """Variables read before any definition in this block."""
        seen: Set[str] = set()
        uses: Set[str] = set()
        for stmt in self.stmts:
            uses.update(a for a in stmt.args if a not in seen)
            if stmt.dest is not None:
                seen.add(stmt.dest)
        return uses


@dataclass(frozen=True)
class CfgEdge:
    """A control-flow edge with a branch probability."""

    src: str
    dst: str
    probability: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("edge probability must be in [0, 1]")


class ControlFlowGraph:
    """Basic blocks, probabilistic edges, and execution frequencies.

    Args:
        name: Program name.
        entry: Name of the entry block (must be added before use).

    Frequencies: each block carries an execution count (set explicitly
    via :meth:`set_frequency`, or propagated from the entry with
    :meth:`propagate_frequencies`), which trace formation uses to pick
    hot seeds and which becomes the region's ``trip_count``.
    """

    def __init__(
        self,
        name: str,
        entry: str = "entry",
        inputs: Optional[Iterable[str]] = None,
    ) -> None:
        self.name = name
        self.entry = entry
        #: Variables defined before this CFG runs (function parameters,
        #: values from earlier program phases).  They become LIVE_IN
        #: pseudo-instructions during trace lowering.
        self.inputs: Set[str] = set(inputs or ())
        self._blocks: Dict[str, BasicBlock] = {}
        self._succ: Dict[str, List[CfgEdge]] = {}
        self._pred: Dict[str, List[CfgEdge]] = {}
        self._frequency: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_block(self, name: str) -> BasicBlock:
        """Create and register an empty block."""
        if name in self._blocks:
            raise ValueError(f"duplicate block {name!r}")
        block = BasicBlock(name=name)
        self._blocks[name] = block
        self._succ[name] = []
        self._pred[name] = []
        return block

    def add_edge(self, src: str, dst: str, probability: float = 1.0) -> CfgEdge:
        """Add a control-flow edge ``src -> dst``."""
        for name in (src, dst):
            if name not in self._blocks:
                raise KeyError(f"unknown block {name!r}")
        edge = CfgEdge(src=src, dst=dst, probability=probability)
        self._succ[src].append(edge)
        self._pred[dst].append(edge)
        return edge

    def set_frequency(self, name: str, count: float) -> None:
        """Record that ``name`` executes ``count`` times."""
        if name not in self._blocks:
            raise KeyError(f"unknown block {name!r}")
        if count < 0:
            raise ValueError("frequency must be non-negative")
        self._frequency[name] = count

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def block(self, name: str) -> BasicBlock:
        """Block by name."""
        return self._blocks[name]

    def blocks(self) -> List[BasicBlock]:
        """All blocks, insertion order."""
        return list(self._blocks.values())

    def successors(self, name: str) -> List[CfgEdge]:
        """Outgoing edges."""
        return list(self._succ[name])

    def predecessors(self, name: str) -> List[CfgEdge]:
        """Incoming edges."""
        return list(self._pred[name])

    def frequency(self, name: str) -> float:
        """Execution count of block ``name`` (default 1.0)."""
        return self._frequency.get(name, 1.0)

    # ------------------------------------------------------------------
    # Analyses
    # ------------------------------------------------------------------

    def propagate_frequencies(self, entry_count: float = 1.0, rounds: int = 32) -> None:
        """Estimate block frequencies from edge probabilities.

        Iterative forward propagation from the entry; loops converge
        geometrically since back-edge probabilities are < 1 in any
        terminating profile.  Explicit :meth:`set_frequency` values are
        overwritten.
        """
        freq = {name: 0.0 for name in self._blocks}
        freq[self.entry] = entry_count
        for _ in range(rounds):
            nxt = {name: 0.0 for name in self._blocks}
            nxt[self.entry] = entry_count
            for name, edges in self._succ.items():
                for e in edges:
                    nxt[e.dst] += freq[name] * e.probability
            if all(abs(nxt[n] - freq[n]) < 1e-9 for n in freq):
                freq = nxt
                break
            freq = nxt
        self._frequency = freq

    def liveness(self) -> Tuple[Dict[str, Set[str]], Dict[str, Set[str]]]:
        """Backward dataflow: per-block (live_in, live_out) variable sets.

        ``live_out(B) = union of live_in(S) over successors S``;
        ``live_in(B) = uses(B) | (live_out(B) - defs(B))``.
        Variables live out of exit blocks (no successors) are considered
        dead; model function results by reading them in a final block.
        """
        live_in: Dict[str, Set[str]] = {n: set() for n in self._blocks}
        live_out: Dict[str, Set[str]] = {n: set() for n in self._blocks}
        changed = True
        while changed:
            changed = False
            for name, block in self._blocks.items():
                out: Set[str] = set()
                for e in self._succ[name]:
                    out |= live_in[e.dst]
                new_in = block.upward_exposed_uses() | (out - block.defs())
                if out != live_out[name] or new_in != live_in[name]:
                    live_out[name] = out
                    live_in[name] = new_in
                    changed = True
        return live_in, live_out

    def validate(self) -> None:
        """Check entry existence, edge sanity, and variable definedness.

        A variable used in a block must be defined on *every* path from
        the entry (approximated conservatively: it must not be live-in
        at the entry block).
        """
        if self.entry not in self._blocks:
            raise ValueError(f"entry block {self.entry!r} does not exist")
        live_in, _ = self.liveness()
        undefined = live_in[self.entry] - self.inputs
        if undefined:
            raise ValueError(
                f"variables possibly used before definition: {sorted(undefined)}"
            )
        for name, edges in self._succ.items():
            total = sum(e.probability for e in edges)
            if edges and total > 1.0 + 1e-6:
                raise ValueError(
                    f"block {name!r} outgoing probabilities sum to {total:.3f} > 1"
                )

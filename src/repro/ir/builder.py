"""Fluent construction of scheduling regions.

:class:`RegionBuilder` is the front end the workload kernels use to emit
dependence graphs.  It provides value-handle semantics (every operation
returns a :class:`Value` that later operations consume), tracks memory
banks so that per-bank ordering edges are inserted automatically, and
records live-in/live-out pseudo-instructions for values that cross region
boundaries.

Memory operations carry their *bank* number; they become preplaced only
when :func:`repro.workloads.congruence.apply_congruence` maps banks onto
the clusters of a concrete machine.  This mirrors the paper's pipeline,
where Maps/congruence analysis runs before scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .ddg import DataDependenceGraph
from .opcode import LatencyModel, Opcode
from .regions import Region, RegionKind


@dataclass(frozen=True)
class Value:
    """Handle to the SSA value produced by one instruction."""

    uid: int


class RegionBuilder:
    """Builds one :class:`~repro.ir.regions.Region` instruction by
    instruction.

    Args:
        name: Region name.
        latency_model: Optional latency overrides.
        kind: Region kind recorded on the result.
        trip_count: Execution count used for program-level weighting.

    Example:
        >>> b = RegionBuilder("dot2")
        >>> x0 = b.load(bank=0, name="x[0]")
        >>> y0 = b.load(bank=0, name="y[0]")
        >>> p0 = b.fmul(x0, y0)
        >>> _ = b.live_out(p0)
        >>> region = b.build()
        >>> len(region.ddg)
        4
    """

    def __init__(
        self,
        name: str,
        latency_model: Optional[LatencyModel] = None,
        kind: RegionKind = RegionKind.TRACE,
        trip_count: int = 1,
    ) -> None:
        self._ddg = DataDependenceGraph(latency_model=latency_model, name=name)
        self._kind = kind
        self._trip_count = trip_count
        # Memory ordering state per (array, bank): the last store and
        # the loads issued since it.  Distinct arrays never alias, so
        # only same-array same-bank accesses are ordered.
        self._last_store: Dict[Tuple[str, int], int] = {}
        self._loads_since_store: Dict[Tuple[str, int], List[int]] = {}
        self._built = False

    # ------------------------------------------------------------------
    # Sources and sinks
    # ------------------------------------------------------------------

    def live_in(self, name: str = "", home_cluster: Optional[int] = None) -> Value:
        """A value defined in a previous region.

        ``home_cluster`` pins the value to a cluster; when left ``None``
        the congruence pass assigns the target's convention (e.g. Chorus
        maps all cross-region values to the first cluster).
        """
        inst = self._ddg.new_instruction(
            Opcode.LIVE_IN, (), name=name, home_cluster=home_cluster
        )
        return Value(inst.uid)

    def live_out(self, value: Value, name: str = "", home_cluster: Optional[int] = None) -> Value:
        """Mark ``value`` as live past the end of this region."""
        inst = self._ddg.new_instruction(
            Opcode.LIVE_OUT, (value.uid,), name=name, home_cluster=home_cluster
        )
        return Value(inst.uid)

    def li(self, immediate: float = 0.0, name: str = "") -> Value:
        """Materialize an immediate constant."""
        inst = self._ddg.new_instruction(Opcode.LI, (), name=name, immediate=immediate)
        return Value(inst.uid)

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------

    def load(
        self,
        address: Optional[Value] = None,
        bank: int = 0,
        name: str = "",
        array: str = "",
    ) -> Value:
        """Load from ``array`` on ``bank``; ``address`` optionally feeds it.

        Adds a memory ordering edge from the most recent store to the
        same array and bank, so the scheduler cannot hoist the load
        above it.
        """
        operands = (address.uid,) if address is not None else ()
        inst = self._ddg.new_instruction(Opcode.LOAD, operands, name=name, bank=bank)
        key = (array, bank)
        if key in self._last_store:
            self._ddg.add_dependence(self._last_store[key], inst.uid, kind="mem")
        self._loads_since_store.setdefault(key, []).append(inst.uid)
        return Value(inst.uid)

    def store(
        self,
        value: Value,
        address: Optional[Value] = None,
        bank: int = 0,
        name: str = "",
        array: str = "",
    ) -> Value:
        """Store ``value`` to ``array`` on ``bank``.

        Orders after the previous store to the same array and bank and
        after every load issued since it (anti-dependences).
        """
        operands = [value.uid]
        if address is not None:
            operands.append(address.uid)
        inst = self._ddg.new_instruction(Opcode.STORE, tuple(operands), name=name, bank=bank)
        key = (array, bank)
        if key in self._last_store:
            self._ddg.add_dependence(self._last_store[key], inst.uid, kind="mem")
        for load_uid in self._loads_since_store.get(key, ()):
            self._ddg.add_dependence(load_uid, inst.uid, latency=0, kind="mem")
        self._last_store[key] = inst.uid
        self._loads_since_store[key] = []
        return Value(inst.uid)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def op(self, opcode: Opcode, *operands: Value, name: str = "") -> Value:
        """Emit an arbitrary computation over ``operands``."""
        inst = self._ddg.new_instruction(
            opcode, tuple(v.uid for v in operands), name=name
        )
        return Value(inst.uid)

    def add(self, a: Value, b: Value, name: str = "") -> Value:
        """Integer add."""
        return self.op(Opcode.ADD, a, b, name=name)

    def sub(self, a: Value, b: Value, name: str = "") -> Value:
        """Integer subtract."""
        return self.op(Opcode.SUB, a, b, name=name)

    def mul(self, a: Value, b: Value, name: str = "") -> Value:
        """Integer multiply."""
        return self.op(Opcode.MUL, a, b, name=name)

    def shl(self, a: Value, b: Value, name: str = "") -> Value:
        """Shift left."""
        return self.op(Opcode.SHL, a, b, name=name)

    def xor(self, a: Value, b: Value, name: str = "") -> Value:
        """Bitwise xor."""
        return self.op(Opcode.XOR, a, b, name=name)

    def and_(self, a: Value, b: Value, name: str = "") -> Value:
        """Bitwise and."""
        return self.op(Opcode.AND, a, b, name=name)

    def or_(self, a: Value, b: Value, name: str = "") -> Value:
        """Bitwise or."""
        return self.op(Opcode.OR, a, b, name=name)

    def fadd(self, a: Value, b: Value, name: str = "") -> Value:
        """Floating-point add."""
        return self.op(Opcode.FADD, a, b, name=name)

    def fsub(self, a: Value, b: Value, name: str = "") -> Value:
        """Floating-point subtract."""
        return self.op(Opcode.FSUB, a, b, name=name)

    def fmul(self, a: Value, b: Value, name: str = "") -> Value:
        """Floating-point multiply."""
        return self.op(Opcode.FMUL, a, b, name=name)

    def fdiv(self, a: Value, b: Value, name: str = "") -> Value:
        """Floating-point divide."""
        return self.op(Opcode.FDIV, a, b, name=name)

    def reduce(self, values: Sequence[Value], opcode: Opcode = Opcode.FADD) -> Value:
        """Balanced-tree reduction of ``values`` with ``opcode``.

        Emits ``len(values) - 1`` operations arranged as a binary tree,
        the shape compilers produce for unrolled accumulations.
        """
        work = list(values)
        if not work:
            raise ValueError("cannot reduce an empty sequence")
        while len(work) > 1:
            nxt: List[Value] = []
            for i in range(0, len(work) - 1, 2):
                nxt.append(self.op(opcode, work[i], work[i + 1]))
            if len(work) % 2:
                nxt.append(work[-1])
            work = nxt
        return work[0]

    # ------------------------------------------------------------------
    # Finish
    # ------------------------------------------------------------------

    def build(self, validate: bool = True) -> Region:
        """Finalize and return the region.  The builder cannot be reused."""
        if self._built:
            raise RuntimeError("RegionBuilder.build() called twice")
        self._built = True
        if validate:
            self._ddg.validate()
        return Region(
            name=self._ddg.name,
            ddg=self._ddg,
            kind=self._kind,
            trip_count=self._trip_count,
        )

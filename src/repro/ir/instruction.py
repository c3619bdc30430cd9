"""Instructions: the atomic units placed in space and time.

An :class:`Instruction` is an SSA-style operation: it reads the values
produced by other instructions (its *operands*) and defines at most one
value of its own.  Instructions may be *preplaced*: pinned to a specific
cluster/tile, either because they access a memory bank that lives there
(congruence analysis) or because they define/use a value that is live
across scheduling regions and has a fixed home cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Any, Iterable, Optional, Tuple

from .opcode import FuncClass, Opcode

#: The process-wide write counter: each instruction attribute write takes
#: its next number and stores it in ``_last_write``.
_WRITE_NUMBERS = count(1)
_last_write = 0

_set = object.__setattr__


def instruction_writes() -> int:
    """The count of :class:`Instruction` attribute writes so far in this process.

    Every ``inst.field = value`` after construction takes the next
    number from one counter and stores it here, so an unchanged value
    proves that no instruction of any graph was written since it was
    read; the fingerprint's per-graph memo
    (``repro.engine.fingerprint.canonical_form``) reads it as part of
    its stamp.  ``next()`` on the counter is atomic, so under threads
    each write still stores a number no other write stores, and a write
    that lands after a read changes what the next read returns.

    Construction (and so ``dataclasses.replace``) stores its fields with
    ``object.__setattr__``, and unpickling and ``copy.deepcopy`` fill
    ``__dict__`` directly: none of them counts a write.  For the same
    reason ``object.__setattr__`` and writes into ``__dict__`` bypass
    the count.
    """
    return _last_write


@dataclass(init=False)
class Instruction:
    """A single operation in a scheduling region.

    Attributes:
        uid: Dense integer id, unique within its region.  Dependence
            graphs, weight matrices and schedules all index by ``uid``.
        opcode: The operation.
        operands: ``uid``s of the producer instructions whose values this
            instruction reads, in operand order.
        home_cluster: If not ``None``, the cluster this instruction is
            preplaced on.  Correctness requires the scheduler to honor it.
        name: Optional human-readable label (e.g. ``"a[i+1]"``).
        bank: For memory operations, the memory bank accessed (used by the
            congruence model to derive ``home_cluster``); otherwise None.
    """

    uid: int
    opcode: Opcode
    operands: Tuple[int, ...] = ()
    home_cluster: Optional[int] = None
    name: str = ""
    bank: Optional[int] = None
    #: Constant payload for LI pseudo-source values (used by the simulator).
    immediate: Optional[float] = None

    def __init__(
        self,
        uid: int,
        opcode: Opcode,
        operands: Iterable[int] = (),
        home_cluster: Optional[int] = None,
        name: str = "",
        bank: Optional[int] = None,
        immediate: Optional[float] = None,
    ) -> None:
        # Written by hand so construction bypasses the counting
        # __setattr__: each field is stored once by object.__setattr__.
        # (Filling ``self.__dict__`` instead would be cheaper here, but on
        # CPython 3.11 it moves the instance's inline attribute values
        # into a dict, which makes every later attribute read slower.)
        operands = tuple(operands)
        _set(self, "uid", uid)
        _set(self, "opcode", opcode)
        _set(self, "operands", operands)
        _set(self, "home_cluster", home_cluster)
        _set(self, "name", name)
        _set(self, "bank", bank)
        _set(self, "immediate", immediate)
        if uid < 0:
            raise ValueError(f"instruction uid must be non-negative, got {uid}")
        if uid in operands:
            raise ValueError(f"instruction {uid} cannot depend on itself")

    def __setattr__(self, name: str, value: Any) -> None:
        """Set an attribute and take the next write number (see :func:`instruction_writes`)."""
        _set(self, name, value)
        global _last_write
        _last_write = next(_WRITE_NUMBERS)

    @property
    def preplaced(self) -> bool:
        """True if this instruction is pinned to a specific cluster."""
        return self.home_cluster is not None

    @property
    def func_class(self) -> FuncClass:
        """The functional class this instruction executes on."""
        return self.opcode.func_class

    @property
    def is_memory(self) -> bool:
        """True for loads and stores."""
        return self.opcode.is_memory

    @property
    def is_pseudo(self) -> bool:
        """True for live-in/live-out markers that occupy no functional unit."""
        return self.opcode.is_pseudo

    @property
    def defines_value(self) -> bool:
        """True if this instruction produces a register value."""
        return self.opcode.defines_value

    def label(self) -> str:
        """A short printable label, e.g. ``"12:fmul"``."""
        suffix = f" {self.name}" if self.name else ""
        return f"{self.uid}:{self.opcode.value}{suffix}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pin = f" @c{self.home_cluster}" if self.preplaced else ""
        ops = ",".join(str(o) for o in self.operands)
        return f"<Instruction {self.label()}({ops}){pin}>"


@dataclass(frozen=True)
class DependenceEdge:
    """A scheduling edge between two instructions.

    Attributes:
        src: Producer instruction uid.
        dst: Consumer instruction uid.
        latency: Minimum number of cycles between the issue of ``src``
            and the issue of ``dst`` when both run on the same cluster.
        kind: ``"data"`` for true (RAW) dependences that carry a register
            value, ``"mem"`` for memory ordering edges (store-load,
            load-store, store-store on the same bank), ``"order"`` for
            other ordering constraints.  Only ``"data"`` edges require
            communication when the endpoints land on different clusters.
    """

    src: int
    dst: int
    latency: int = 1
    kind: str = "data"

    def __post_init__(self) -> None:
        if self.kind not in ("data", "mem", "order"):
            raise ValueError(f"unknown edge kind {self.kind!r}")
        if self.latency < 0:
            raise ValueError("edge latency must be non-negative")

    @property
    def carries_value(self) -> bool:
        """True if this edge moves a register value producer->consumer."""
        return self.kind == "data"

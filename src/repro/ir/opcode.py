"""Instruction opcodes and operation latencies.

The instruction set is modelled after the MIPS R4000, which both target
machines in the paper (the Raw tile processor and the Chorus clustered
VLIW) base their pipelines on.  Opcodes are grouped into *functional
classes* (:class:`FuncClass`) that determine which functional unit can
execute them; latencies live in :class:`LatencyModel` so that machine
models can override them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict


class FuncClass(enum.Enum):
    """Functional class of an opcode: which kind of unit executes it."""

    IALU = "ialu"  # integer arithmetic/logic
    IMUL = "imul"  # integer multiply/divide (executes on the integer ALU)
    MEM = "mem"  # loads and stores
    FPU = "fpu"  # floating-point arithmetic
    XFER = "xfer"  # inter-cluster register copy (clustered VLIW)
    ROUTE = "route"  # static-network route (Raw switch)
    CONST = "const"  # immediate materialization
    PSEUDO = "pseudo"  # live-in/live-out markers; occupy no unit


class Opcode(enum.Enum):
    """Operations understood by the schedulers and the simulator.

    The value of each member is its assembly-style mnemonic.
    """

    # Integer
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    SLT = "slt"
    MUL = "mul"
    DIV = "div"
    # Memory
    LOAD = "load"
    STORE = "store"
    # Floating point
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FCMP = "fcmp"
    FSQRT = "fsqrt"
    # Data movement
    MOVE = "move"
    LI = "li"  # load immediate
    XFER = "xfer"  # inter-cluster copy (inserted by the scheduler)
    ROUTE = "route"  # static network hop (inserted by the scheduler)
    # Region boundary pseudo-ops
    LIVE_IN = "live_in"
    LIVE_OUT = "live_out"

    # Per-member facts, set once at import below :data:`FUNC_CLASS` (they
    # are annotations without values, so not members).  Reading one is an
    # attribute load; a dict keyed by the member would hash it through
    # the Python-level ``Enum.__hash__`` on every query.
    func_class: FuncClass
    is_memory: bool
    is_pseudo: bool
    defines_value: bool


#: Map from opcode to the functional class that executes it.
FUNC_CLASS: Dict[Opcode, FuncClass] = {
    Opcode.ADD: FuncClass.IALU,
    Opcode.SUB: FuncClass.IALU,
    Opcode.AND: FuncClass.IALU,
    Opcode.OR: FuncClass.IALU,
    Opcode.XOR: FuncClass.IALU,
    Opcode.SHL: FuncClass.IALU,
    Opcode.SHR: FuncClass.IALU,
    Opcode.SLT: FuncClass.IALU,
    Opcode.MUL: FuncClass.IMUL,
    Opcode.DIV: FuncClass.IMUL,
    Opcode.LOAD: FuncClass.MEM,
    Opcode.STORE: FuncClass.MEM,
    Opcode.FADD: FuncClass.FPU,
    Opcode.FSUB: FuncClass.FPU,
    Opcode.FMUL: FuncClass.FPU,
    Opcode.FDIV: FuncClass.FPU,
    Opcode.FCMP: FuncClass.FPU,
    Opcode.FSQRT: FuncClass.FPU,
    Opcode.MOVE: FuncClass.IALU,
    Opcode.LI: FuncClass.CONST,
    Opcode.XFER: FuncClass.XFER,
    Opcode.ROUTE: FuncClass.ROUTE,
    Opcode.LIVE_IN: FuncClass.PSEUDO,
    Opcode.LIVE_OUT: FuncClass.PSEUDO,
}

for _opcode, _func_class in FUNC_CLASS.items():
    _opcode.func_class = _func_class
    _opcode.is_memory = _func_class is FuncClass.MEM
    _opcode.is_pseudo = _func_class is FuncClass.PSEUDO
    _opcode.defines_value = _opcode not in (Opcode.STORE, Opcode.LIVE_OUT)


@dataclass(frozen=True)
class LatencyModel:
    """Result latencies, in cycles, keyed by opcode.

    Defaults follow the MIPS R4000 pipeline as used by Rawcc: single-cycle
    integer ALU, pipelined 2-cycle multiply, 3-cycle loads, multi-cycle
    floating point, and long unpipelined divides.
    """

    latencies: Dict[Opcode, int] = field(
        default_factory=lambda: {
            Opcode.ADD: 1,
            Opcode.SUB: 1,
            Opcode.AND: 1,
            Opcode.OR: 1,
            Opcode.XOR: 1,
            Opcode.SHL: 1,
            Opcode.SHR: 1,
            Opcode.SLT: 1,
            Opcode.MUL: 2,
            Opcode.DIV: 12,
            Opcode.LOAD: 3,
            Opcode.STORE: 1,
            Opcode.FADD: 4,
            Opcode.FSUB: 4,
            Opcode.FMUL: 4,
            Opcode.FDIV: 12,
            Opcode.FCMP: 2,
            Opcode.FSQRT: 14,
            Opcode.MOVE: 1,
            Opcode.LI: 1,
            Opcode.XFER: 1,
            Opcode.ROUTE: 1,
            Opcode.LIVE_IN: 0,
            Opcode.LIVE_OUT: 0,
        }
    )

    def latency(self, opcode: Opcode) -> int:
        """Return the result latency of ``opcode`` in cycles."""
        return self.latencies[opcode]

    def with_overrides(self, **mnemonic_latencies: int) -> "LatencyModel":
        """Return a copy with the given per-mnemonic latency overrides.

        >>> LatencyModel().with_overrides(load=2).latency(Opcode.LOAD)
        2
        """
        table = dict(self.latencies)
        for mnemonic, cycles in mnemonic_latencies.items():
            table[Opcode(mnemonic)] = cycles
        return replace(self, latencies=table)


def func_class(opcode: Opcode) -> FuncClass:
    """Return the functional class of ``opcode``."""
    return opcode.func_class


def is_memory(opcode: Opcode) -> bool:
    """True for loads and stores."""
    return opcode.is_memory


def is_pseudo(opcode: Opcode) -> bool:
    """True for region-boundary pseudo-ops that occupy no functional unit."""
    return opcode.is_pseudo

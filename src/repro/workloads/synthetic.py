"""Synthetic dependence-graph families.

Figure 2 of the paper contrasts two graph shapes: *thin* graphs
dominated by a few critical paths (typical of non-numeric code) and
*fat* graphs with abundant coarse-grained parallelism (unrolled numeric
loops).  These generators produce both families at any size, plus a
mixed layered family; they drive the compile-time scalability experiment
(Figure 10) and the property-based tests.
"""

from __future__ import annotations


import numpy as np

from ..ir.builder import RegionBuilder, Value
from ..ir.opcode import Opcode
from ..ir.regions import Program

_ARITH = (Opcode.FADD, Opcode.FMUL, Opcode.FSUB, Opcode.ADD, Opcode.SUB)


def thin_graph(n: int, seed: int = 0, cross_link: float = 0.08) -> Program:
    """A long, narrow graph: a few serial chains with sparse cross links.

    Roughly ``n`` instructions in 2-3 chains; critical-path heuristics
    dominate on this family.
    """
    rng = np.random.default_rng(seed)
    chains = max(2, n // 64)
    b = RegionBuilder(f"thin{n}")
    current = [b.live_in(name=f"c{i}") for i in range(chains)]
    emitted = chains
    while emitted < n:
        ci = int(rng.integers(chains))
        op = _ARITH[int(rng.integers(len(_ARITH)))]
        if rng.random() < cross_link:
            other = current[int(rng.integers(chains))]
        else:
            other = current[ci]
        if other.uid == current[ci].uid:
            other = b.li(float(emitted % 7 + 1))
            emitted += 1
        current[ci] = b.op(op, current[ci], other)
        emitted += 1
    for v in current:
        b.live_out(v)
    return Program(f"thin{n}", [b.build()])


def fat_graph(n: int, seed: int = 0, banks: int = 16, strand_length: int = 6) -> Program:
    """A fat, parallel graph: many short independent strands.

    Each strand loads two values, runs a short arithmetic chain, and
    stores — the shape loop unrolling gives numeric programs.
    """
    rng = np.random.default_rng(seed)
    b = RegionBuilder(f"fat{n}")
    emitted = 0
    strand = 0
    while emitted < n:
        x = b.load(bank=strand % banks, name=f"x[{strand}]", array="x")
        y = b.load(bank=(strand + 1) % banks, name=f"y[{strand}]", array="y")
        value: Value = b.fmul(x, y)
        emitted += 3
        for _ in range(strand_length - 1):
            op = _ARITH[int(rng.integers(len(_ARITH)))]
            value = b.op(op, value, x if rng.random() < 0.5 else y)
            emitted += 1
        b.store(value, bank=strand % banks, name=f"out[{strand}]", array="out")
        emitted += 1
        strand += 1
    return Program(f"fat{n}", [b.build()])


def layered_graph(
    n: int,
    width: int = 8,
    seed: int = 0,
    banks: int = 16,
    fan_in: int = 2,
) -> Program:
    """A layered random DAG of controllable width.

    Layer ``k`` instructions draw operands uniformly from layer ``k-1``;
    a blend between the thin and fat extremes, used for scaling sweeps.
    """
    rng = np.random.default_rng(seed)
    b = RegionBuilder(f"layered{n}w{width}")
    layer = [b.load(bank=i % banks, name=f"in[{i}]", array="in") for i in range(width)]
    emitted = width
    while emitted < n:
        nxt = []
        for i in range(width):
            if emitted >= n:
                break
            op = _ARITH[int(rng.integers(len(_ARITH)))]
            sources = rng.choice(len(layer), size=min(fan_in, len(layer)), replace=False)
            value = layer[int(sources[0])]
            for s in sources[1:]:
                value = b.op(op, value, layer[int(s)])
                emitted += 1
            nxt.append(value)
        layer = nxt or layer
    for i, v in enumerate(layer[: min(4, len(layer))]):
        b.store(v, bank=i % banks, name=f"out[{i}]", array="out")
    return Program(f"layered{n}", [b.build()])

"""Trace formation and trace-to-region lowering.

Implements Fisher's mutual-most-likely trace selection (the scheme Rawcc
and Multiflow use to carve scheduling units out of a CFG) and lowers
each trace into a :class:`~repro.ir.regions.Region`:

* statements become dependence-graph instructions via
  :class:`~repro.ir.builder.RegionBuilder`;
* variables defined outside the trace (or CFG inputs) become LIVE_IN
  pseudo-instructions;
* values that outlive the trace — live into an off-trace successor, or
  live at the trace's fall-through exit — become LIVE_OUT
  pseudo-instructions, which congruence later pins to home clusters
  (that is how cross-region preplacement constraints arise).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .builder import RegionBuilder, Value
from .cfg import ControlFlowGraph
from .opcode import Opcode
from .regions import Program, Region, RegionKind


def form_traces(
    cfg: ControlFlowGraph, max_freq_ratio: float = 4.0
) -> List[List[str]]:
    """Partition blocks into traces, hottest seed first.

    The mutual-most-likely rule: starting from the hottest unassigned
    block, the trace grows forward while the current block's most likely
    successor also has the current block as its most likely predecessor
    (and is unassigned); then it grows backward symmetrically.  Every
    block lands in exactly one trace.

    Growth additionally stops when the next block's execution frequency
    differs from the current one's by more than ``max_freq_ratio`` —
    the conventional guard that keeps traces from crossing loop
    boundaries (a loop body runs many times per pre-header execution
    and deserves its own region).
    """
    assigned: Set[str] = set()

    def compatible(a: str, b: str) -> bool:
        fa, fb = max(cfg.frequency(a), 1e-12), max(cfg.frequency(b), 1e-12)
        ratio = fa / fb if fa > fb else fb / fa
        return ratio <= max_freq_ratio
    traces: List[List[str]] = []
    order = sorted(
        (b.name for b in cfg.blocks()),
        key=lambda n: (-cfg.frequency(n), n),
    )

    def most_likely_successor(name: str) -> Optional[str]:
        edges = [e for e in cfg.successors(name) if e.dst not in assigned]
        if not edges:
            return None
        return max(edges, key=lambda e: (e.probability, e.dst)).dst

    def most_likely_predecessor(name: str) -> Optional[str]:
        edges = [e for e in cfg.predecessors(name) if e.src not in assigned]
        if not edges:
            return None
        return max(edges, key=lambda e: (e.probability, e.src)).src

    for seed in order:
        if seed in assigned:
            continue
        trace = [seed]
        assigned.add(seed)
        # Grow forward: extend to the most likely unassigned successor,
        # but only if we are also its most likely predecessor (the
        # mutual-most-likely condition).
        current = seed
        while True:
            nxt = most_likely_successor(current)
            if nxt is None:
                break
            back = cfg.predecessors(nxt)
            best_back = (
                max(back, key=lambda e: (e.probability, e.src)).src if back else None
            )
            if best_back != current or not compatible(current, nxt):
                break
            trace.append(nxt)
            assigned.add(nxt)
            current = nxt
        # Grow backward.
        current = seed
        while True:
            prev = most_likely_predecessor(current)
            if prev is None:
                break
            forward = cfg.successors(prev)
            best_forward = (
                max(forward, key=lambda e: (e.probability, e.dst)).dst
                if forward
                else None
            )
            if best_forward != current or not compatible(current, prev):
                break
            trace.insert(0, prev)
            assigned.add(prev)
            current = prev
        traces.append(trace)
    return traces


def lower_trace(
    cfg: ControlFlowGraph,
    trace: List[str],
    live_in: Dict[str, Set[str]],
    live_out: Dict[str, Set[str]],
) -> Region:
    """Lower one trace into a schedulable region.

    The trace's statements are concatenated in order; the dependence
    graph captures the data flow between them, per-(array, bank) memory
    ordering, and the LIVE_IN/LIVE_OUT boundary pseudo-instructions.
    The region's ``trip_count`` is the trace head's execution frequency.
    """
    name = f"{cfg.name}.{'+'.join(trace)}"
    builder = RegionBuilder(
        name,
        kind=RegionKind.TRACE,
        trip_count=max(1, round(cfg.frequency(trace[0]))),
    )
    trace_set = set(trace)
    env: Dict[str, Value] = {}
    defined_here: Set[str] = set()

    def read(var: str) -> Value:
        if var not in env:
            env[var] = builder.live_in(name=var)
        return env[var]

    for block_name in trace:
        block = cfg.block(block_name)
        for stmt in block.stmts:
            if stmt.opcode is Opcode.LI:
                value = builder.li(stmt.immediate or 0.0, name=stmt.dest or "")
            elif stmt.opcode is Opcode.LOAD:
                address = read(stmt.args[0]) if stmt.args else None
                value = builder.load(
                    address=address,
                    bank=stmt.bank if stmt.bank is not None else 0,
                    name=stmt.dest or "",
                    array=stmt.array,
                )
            elif stmt.opcode is Opcode.STORE:
                builder.store(
                    read(stmt.args[0]),
                    address=read(stmt.args[1]) if len(stmt.args) > 1 else None,
                    bank=stmt.bank if stmt.bank is not None else 0,
                    array=stmt.array,
                )
                continue
            else:
                operands = [read(a) for a in stmt.args]
                value = builder.op(stmt.opcode, *operands, name=stmt.dest or "")
            if stmt.dest is not None:
                env[stmt.dest] = value
                defined_here.add(stmt.dest)

    # A value defined in the trace escapes if some off-trace block may
    # read it: it is live into an off-trace successor of any trace
    # block, or live out of the trace's final block.
    escaping: Set[str] = set()
    last = trace[-1]
    for block_name in trace:
        for edge in cfg.successors(block_name):
            if edge.dst not in trace_set:
                escaping |= live_in[edge.dst]
    escaping |= live_out[last]
    for var in sorted(escaping & defined_here):
        builder.live_out(env[var], name=var)

    return builder.build()


def program_from_cfg(cfg: ControlFlowGraph) -> Program:
    """Form traces over ``cfg`` and lower each into a region.

    The standard front-end pipeline: validate, compute liveness, pick
    traces hottest-first, lower.  Apply
    :func:`repro.workloads.congruence.apply_congruence` to the result
    before scheduling to bind banks and cross-region values to a
    machine.
    """
    cfg.validate()
    live_in, live_out = cfg.liveness()
    program = Program(cfg.name)
    for trace in form_traces(cfg):
        program.add(lower_trace(cfg, trace, live_in, live_out))
    return program

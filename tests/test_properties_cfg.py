"""Property-based tests for the CFG -> trace -> region pipeline.

Random layered CFGs (with branches, joins, and skip edges) must always
survive the full front end: validation, liveness, trace formation (a
partition), lowering (valid regions), congruence, scheduling, and
simulation with dataflow replay.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import ConvergentScheduler
from repro.ir import ControlFlowGraph, Opcode, Stmt, form_traces, program_from_cfg
from repro.machine import ClusteredVLIW
from repro.sim import simulate
from repro.workloads import apply_congruence

_OPS = [Opcode.FADD, Opcode.FMUL, Opcode.ADD, Opcode.SUB]


@st.composite
def random_cfgs(draw):
    """A layered CFG: each layer flows to the next, sometimes forking."""
    n_layers = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    cfg = ControlFlowGraph(f"cfg{seed % 9973}", entry="b0_0", inputs={"in0", "in1"})
    layers = []
    counter = 0
    for layer_index in range(n_layers):
        width = 1 if layer_index == 0 else int(rng.integers(1, 3))
        layer = []
        for _ in range(width):
            name = f"b{layer_index}_{len(layer)}"
            block = cfg.add_block(name)
            # Each block defines a couple of values from what must exist.
            sources = ["in0", "in1"]
            for k in range(int(rng.integers(1, 4))):
                var = f"v{counter}"
                counter += 1
                op = _OPS[int(rng.integers(len(_OPS)))]
                a = sources[int(rng.integers(len(sources)))]
                b = sources[int(rng.integers(len(sources)))]
                block.add(Stmt(var, op, (a, b)))
                sources.append(var)
            layer.append(name)
        layers.append(layer)
    # Wire consecutive layers with probability-weighted edges.
    for upper, lower in zip(layers, layers[1:]):
        for src in upper:
            remaining = 1.0
            for i, dst in enumerate(lower):
                p = remaining if i == len(lower) - 1 else round(remaining * 0.7, 3)
                cfg.add_edge(src, dst, min(p, remaining))
                remaining = max(0.0, remaining - p)
    cfg.propagate_frequencies(entry_count=8.0)
    return cfg


class TestCfgPipelineProperties:
    @given(random_cfgs())
    @settings(max_examples=25, deadline=None)
    def test_traces_partition_blocks(self, cfg):
        traces = form_traces(cfg)
        flat = [name for trace in traces for name in trace]
        assert sorted(flat) == sorted(b.name for b in cfg.blocks())

    @given(random_cfgs())
    @settings(max_examples=25, deadline=None)
    def test_lowered_regions_validate(self, cfg):
        program = program_from_cfg(cfg)
        assert program.regions
        for region in program.regions:
            region.ddg.validate()

    @given(random_cfgs())
    @settings(max_examples=15, deadline=None)
    def test_regions_schedule_and_replay(self, cfg):
        machine = ClusteredVLIW(2)
        program = apply_congruence(program_from_cfg(cfg), machine)
        scheduler = ConvergentScheduler()
        for region in program.regions:
            schedule = scheduler.schedule(region, machine)
            report = simulate(region, machine, schedule)
            assert report.ok

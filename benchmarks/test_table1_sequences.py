"""Table 1: the heuristic sequences used by the convergent scheduler.

Prints both published sequences and times one full pass-pipeline run
(matrix updates only, no list scheduling) on a mid-size region — the
cost that Table 1's length implies per scheduling unit.
"""

import pytest

from repro.core import (
    PreferenceMatrix,
    RAW_SEQUENCE,
    TUNED_VLIW_SEQUENCE,
    VLIW_SEQUENCE,
    build_sequence,
)
from repro.core.passes import PassContext
from repro.machine import ClusteredVLIW, raw_with_tiles
from repro.workloads import build_benchmark

from .conftest import print_report


def test_table1_sequences_match_paper():
    report = [
        "Table 1(a) - Raw sequence:    " + " ".join(RAW_SEQUENCE),
        "Table 1(b) - VLIW sequence:   " + " ".join(VLIW_SEQUENCE),
        "Tuned VLIW (this substrate):  " + " ".join(TUNED_VLIW_SEQUENCE),
    ]
    print_report("Table 1: convergent scheduling pass sequences", "\n".join(report))
    assert RAW_SEQUENCE[0] == "INITTIME" and RAW_SEQUENCE[-1] == "EMPHCP"
    assert VLIW_SEQUENCE[0] == "INITTIME" and VLIW_SEQUENCE[-1] == "EMPHCP"
    assert len(RAW_SEQUENCE) == 11 and len(VLIW_SEQUENCE) == 9


@pytest.mark.parametrize("machine_kind", ["raw", "vliw"])
def test_pass_pipeline_cost(benchmark, machine_kind):
    """Time one full sequence of matrix updates on a real kernel."""
    import numpy as np

    if machine_kind == "raw":
        machine = raw_with_tiles(16)
        sequence = RAW_SEQUENCE
    else:
        machine = ClusteredVLIW(4)
        sequence = VLIW_SEQUENCE
    region = build_benchmark("mxm", machine).regions[0]

    def run_pipeline():
        matrix = PreferenceMatrix.for_region(region.ddg, machine.n_clusters)
        ctx = PassContext(
            ddg=region.ddg, machine=machine, matrix=matrix,
            rng=np.random.default_rng(0),
        )
        for p in build_sequence(sequence):
            p.apply(ctx)
            matrix.normalize()
        return matrix

    matrix = benchmark(run_pipeline)
    matrix.check_invariants()

"""Ablation: robustness to pass ordering.

The paper's architectural claim (Sections 1-2): because passes only
*nudge* shared preferences — decisions are "made cooperatively rather
than exclusively" and can be revisited — the framework "helps alleviate
phase ordering problems" that plague pipelines of irrevocable phases.

This bench quantifies that: we permute the interior of the tuned VLIW
sequence (INITTIME stays first, EMPHCP last) and measure the spread of
mean speedups across orderings.  If ordering were critical, the spread
would rival the drop-a-pass ablation; cooperative decisions should keep
it much tighter.
"""


import pytest

from repro.core import ConvergentScheduler, TUNED_VLIW_SEQUENCE
from repro.harness import arithmetic_mean, vliw_speedups

from .conftest import print_report

SUBSET = ("vvmul", "yuv", "mxm", "cholesky")


def rotations(body, count):
    """A deterministic family of orderings: rotations of the interior."""
    out = []
    for k in range(count):
        shift = (k * 3 + 1) % len(body)
        out.append(body[shift:] + body[:shift])
    return out


@pytest.fixture(scope="module")
def spread():
    body = list(TUNED_VLIW_SEQUENCE[1:-1])
    means = {}
    orderings = [body] + rotations(body, 4)
    for index, ordering in enumerate(orderings):
        sequence = ["INITTIME"] + ordering + [TUNED_VLIW_SEQUENCE[-1]]
        table = vliw_speedups(
            benchmarks=SUBSET,
            schedulers={"c": ConvergentScheduler(passes=sequence)},
            check_values=False,
        )
        means[f"order{index}"] = arithmetic_mean(
            [table.speedups[b]["c"][4] for b in SUBSET]
        )
    return means


def test_phase_order_report(spread):
    lines = [f"  {name}: mean speedup {value:.2f}" for name, value in spread.items()]
    lo, hi = min(spread.values()), max(spread.values())
    lines.append(f"  spread: {hi - lo:.2f} ({(hi - lo) / hi:.1%} of best)")
    print_report("Ablation: pass-order robustness (rotated interiors)", "\n".join(lines))
    assert len(spread) == 5


def test_orderings_stay_usable(spread):
    """Every rotated ordering still clearly beats a single cluster."""
    assert min(spread.values()) > 1.5


def test_spread_is_bounded(spread):
    """Cooperative decisions keep order sensitivity moderate: the
    worst rotation stays within 25% of the best."""
    lo, hi = min(spread.values()), max(spread.values())
    assert (hi - lo) / hi < 0.25


def test_bench_one_rotation(benchmark):
    from repro.machine import ClusteredVLIW
    from repro.workloads import build_benchmark

    machine = ClusteredVLIW(4)
    region = build_benchmark("yuv", machine).regions[0]
    body = list(TUNED_VLIW_SEQUENCE[1:-1])
    sequence = ["INITTIME"] + body[3:] + body[:3] + [TUNED_VLIW_SEQUENCE[-1]]
    benchmark(lambda: ConvergentScheduler(passes=sequence).schedule(region, machine))

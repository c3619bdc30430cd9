"""Full verification sweep: every registered scheduler over every suite
benchmark on both machine families, each schedule statically proven
legal by :mod:`repro.verify`.

This is the zero-false-positive acceptance gate for the verifier: real
schedulers on real workloads must verify clean everywhere (a scheduler
may *decline* a region with ``SchedulingError`` — e.g. the
single-cluster baseline on preplaced multi-tile regions — but may never
produce a schedule the verifier rejects).
"""

import pytest

from repro.machine import ClusteredVLIW, RawMachine
from repro.verify import run_sweep, scheduler_registry
from repro.workloads import RAW_SUITE, VLIW_SUITE

from .conftest import print_report


@pytest.fixture(scope="module")
def sweep():
    return run_sweep(machines=[ClusteredVLIW(4), RawMachine(4, 4)])


def test_sweep_report(sweep):
    print_report(
        "Verification sweep (all schedulers x suites x machines)",
        sweep.render(),
    )
    # One cell per registered scheduler and suite region; every suite
    # kernel builds a single region.
    assert len(sweep.cells) == len(scheduler_registry()) * (
        len(RAW_SUITE) + len(VLIW_SUITE)
    )


def test_every_schedule_verifies_clean(sweep):
    """Acceptance: zero verification failures across the whole grid."""
    assert sweep.ok, sweep.render()


def test_every_scheduler_produced_verified_schedules(sweep):
    """No scheduler hides behind declines: everything it attempts must
    verify clean, and the only scheduler allowed to decline its way out
    of the whole grid is the single-cluster baseline (both sweep
    machines are multi-cluster, so it refuses every suite region)."""
    verified = {(c.machine, c.scheduler) for c in sweep.verified}
    skipped = {(c.machine, c.scheduler) for c in sweep.skipped}
    attempted = {(c.machine, c.scheduler) for c in sweep.cells} - skipped
    machines = {c.machine for c in sweep.cells}
    for scheduler in scheduler_registry():
        silent = [
            m for m in machines
            if (m, scheduler) in attempted and (m, scheduler) not in verified
        ]
        assert not silent, f"{scheduler} verified nothing on {silent}"
        if not any((m, scheduler) in verified for m in machines):
            assert scheduler == "single", (
                f"{scheduler} verified nothing on any machine"
            )


def test_declines_are_single_cluster_only(sweep):
    """The only legitimate decline in the registry is the single-cluster
    baseline refusing preplaced multi-cluster regions."""
    assert {c.scheduler for c in sweep.skipped} <= {"single"}
    for cell in sweep.skipped:
        assert cell.report is None and cell.detail

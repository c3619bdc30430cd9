"""One module decides what a run covers.

:mod:`repro.workloads.suite` holds the default machines, the quick
tier, the paper's scheduler line-ups and the speedup baseline.  These
tests pin every default that expands them — bench, verify, loadtest,
the paper tables and the sweep — to that module, and check the promise
that follows from sharing them: a quick verify after a quick bench on
one cache is served from that cache for the line-up's schedulers.
"""

from __future__ import annotations

import contextlib
import io
import json
import re

import pytest

from repro.cli import main
from repro.engine import CompilationEngine, ScheduleCache
from repro.harness import raw_speedups, vliw_speedups
from repro.machine import machine_from_spec
from repro.observability.bench import run_bench
from repro.serve.loadtest import LoadtestConfig, build_corpus
from repro.verify import run_sweep
from repro.workloads.suite import (
    BASELINE_SCHEDULER,
    MACHINES,
    QUICK_SUITE,
    schedulers_for_machine,
)


def line_up(spec):
    """The paper's scheduler line-up for a machine spec."""
    return list(schedulers_for_machine(machine_from_spec(spec)))


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """``run_bench(quick=True)`` on a disk cache, then ``repro verify
    --quick`` on the same cache.

    The verify run keeps to one line-up scheduler and the baseline so it
    stays fast; returns the snapshot, the verify JSON payload, and the
    verify stdout.
    """
    root = tmp_path_factory.mktemp("quick")
    cache_dir = root / "schedcache"
    with CompilationEngine(cache=ScheduleCache(disk_dir=cache_dir)) as engine:
        snapshot = run_bench(
            quick=True, repeats=1, collect_phases=False, engine=engine
        )
    out = root / "verify.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([
            "verify", "--quick", "--schedulers", f"convergent,{BASELINE_SCHEDULER}",
            "--cache", str(cache_dir), "--json", str(out),
        ])
    assert code == 0, stdout.getvalue()
    return snapshot, json.loads(out.read_text()), stdout.getvalue()


def bench_quick_plan(request):
    snapshot, _, _ = request.getfixturevalue("quick_runs")
    expected = {
        spec: {
            "benchmarks": list(QUICK_SUITE),
            "schedulers": line_up(spec) + [BASELINE_SCHEDULER],
        }
        for spec in MACHINES
    }
    return snapshot.config["plan"], expected


def loadtest_corpus(request):
    cells = [cell for cell, _ in build_corpus(LoadtestConfig())]
    expected = [
        f"{name}/{spec}/{scheduler}"
        for spec in MACHINES
        for name in QUICK_SUITE
        for scheduler in line_up(spec)
    ]
    return cells, expected


def verify_quick_sweep(request):
    _, payload, _ = request.getfixturevalue("quick_runs")
    swept = list(dict.fromkeys((c["machine"], c["benchmark"]) for c in payload["sweep"]))
    return swept, [(spec, name) for spec in MACHINES for name in QUICK_SUITE]


def speedup_line_ups(request):
    raw = raw_speedups(benchmarks=["mxm"], sizes=(2,), check_values=False)
    vliw = vliw_speedups(benchmarks=["mxm"], check_values=False)
    observed = [list(raw.speedups["mxm"]), list(vliw.speedups["mxm"])]
    return observed, [line_up("raw2"), line_up("vliw4")]


def sweep_default_machines(request):
    report = run_sweep(benchmarks=["mxm"], schedulers=["convergent"])
    return list(dict.fromkeys(c.machine for c in report.cells)), list(MACHINES)


@pytest.mark.parametrize(
    "defaults",
    [
        bench_quick_plan,
        loadtest_corpus,
        verify_quick_sweep,
        speedup_line_ups,
        sweep_default_machines,
    ],
    ids=lambda case: case.__name__,
)
def test_default_expands_from_suite(defaults, request):
    observed, expected = defaults(request)
    assert observed == expected


def test_quick_verify_reads_quick_bench_cache(quick_runs):
    """The line-up's cells hit the bench's cache; the baseline misses,
    because the bench runs it on the 1-cluster sibling machine."""
    _, _, stdout = quick_runs
    match = re.search(r"schedule cache: (\d+) hits / (\d+) misses", stdout)
    assert match, stdout
    hits, misses = map(int, match.groups())
    cells = len(MACHINES) * len(QUICK_SUITE)
    assert (hits, misses) == (cells, cells)


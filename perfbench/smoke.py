"""Smoke test of the benchmark itself.

Runs every workload once untraced and once traced, each in its own
process at minimal length, and checks that:

* the last line is the result object with exactly the keys ``correct``,
  ``attempted``, ``failed`` and ``metrics``; ``correct`` is true and
  nothing failed (the traced run compares its cycles with the untraced
  rounds of the same process);
* every ``end_to_end`` metric (untraced) and every ``per_layer`` metric
  (traced) of ``BENCHMARK.json`` is printed with its unit;
* the report line carries the environment, ``nproc`` included;
* removing the layer wrappers restores every patched attribute;
* the serve request stream outlasts its 714 reuse combinations without
  stalling, and a reuse body recurs only after nearly every other one;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  files, the command fails without printing a result.

Run from the repository root::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_workload(spec: dict, workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """One benchmark invocation at minimal length."""
    command = spec["command"] + [
        "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> List[str]:
    """Problems with one invocation's output."""
    label = f"{workload} --trace {trace}"
    proc = run_workload(spec, workload, trace)
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: not correct: {report['failures']}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if printed != expected:
        problems.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                        f"{sorted(set(printed.items()) ^ set(expected.items()))}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{label}: {name} is not a finite number")
    if "nproc" not in report.get("environment", {}):
        problems.append(f"{label}: report lacks the environment")
    return problems


def check_wrappers_removed() -> List[str]:
    """Installing and undoing the wrappers must leave no trace."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import layers

    owners = [
        layers.experiment_mod, layers.kernels_mod, layers.pool_mod, layers.server_mod,
        layers.wire_mod, *layers.FEASIBLE_CALL_SITES, layers.ScheduleCache,
        layers.CompilationEngine, layers.PassGuard, layers.PreferenceMatrix,
        layers.FlightLedger, layers.convergent_mod.ConvergentScheduler,
        layers.list_scheduler_mod.ListScheduler, layers.core_metrics_mod.ConvergenceTrace,
        layers.server_mod.CompileServer, *layers.PASS_REGISTRY.values(),
    ]
    before = [dict(vars(owner)) for owner in owners]
    for serve in (False, True):
        layers.install(layers.SpanRecorder(), serve=serve).undo()
    return [
        f"wrappers left on {getattr(owner, '__name__', owner)}"
        for owner, snapshot in zip(owners, before)
        if dict(vars(owner)) != snapshot
    ]


def check_reuse_stream() -> List[str]:
    """Plan more serve rounds than there are reuse combinations.

    A round shuffles its requests, so a combination may come back up to
    two rounds' worth of reuse requests before its full period.
    """
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.inputs import build_inputs
    from perfbench.workloads import SERVE_ROUND, ServeMixed

    serve = ServeMixed(0)
    serve.inputs = [item for item in build_inputs(0) if item.suite]
    serve.start_stream()
    serve.hit_pool = [serve._suite_request(item) for item in serve.inputs]
    period = 504 + 210
    least_gap = period - 2 * SERVE_ROUND["reuse"]
    rounds = 2 * period // SERVE_ROUND["reuse"] + 1
    bodies = [r.body for _ in range(rounds) for r in serve._plan_round() if r.kind == "reuse"]
    last_seen = {}
    for position, body in enumerate(bodies):
        if position - last_seen.get(body, -period) < least_gap:
            return [f"reuse body repeated after {position - last_seen[body]} requests"]
        last_seen[body] = position
    return []


def check_fails_without_program(spec: dict) -> List[str]:
    """Without the program under test the command must fail cleanly."""
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-smoke-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_workload(spec, spec["workloads"][0]["name"], 0, cwd=bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["the command succeeded without the program under test"]
    return []


def main() -> int:
    """Run every check; exit 1 on any problem."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_wrappers_removed() + check_reuse_stream() + check_fails_without_program(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(f"  {problem}")
    print("smoke ok" if not problems else f"smoke FAILED ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

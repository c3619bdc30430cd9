"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload compile_cold --seed 0 --seconds 15 --trace 0

``--trace 0`` measures untraced and prints every end-to-end metric of
``BENCHMARK.json``.  ``--trace 1`` measures the same rounds untraced and
then traced, and prints every per-layer metric: the layer table (shares
of the traced wall that sum to 100 with ``residual``), the call counts
and tier ratios, and ``trace_overhead_ratio``.  A report line before the
result carries the environment, the per-class serve latencies with their
sample counts, and the error rate with its base.

Outputs are checked against an independent in-process reference outside
the timed sections; any mismatch marks an operation failed and makes
``correct`` false.  Every time metric is scaled to the reference host
speed of ``perfbench.speed``; the report line keeps the raw walls.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: An untraced run sets up at least this many times, and keeps going
#: until the set-ups took ``SETUP_MIN_SECONDS`` (up to ``SETUP_MAX``), so
#: a cheap set-up is repeated often enough for a steady ``setup_s``
#: (their median).  The repeats run after measuring, so that
#: ``peak_rss_mb`` does not cover them.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX = 15

#: ``peak_rss_mb`` is the peak when this many rounds have run, so it
#: covers the same work at any throughput (each serve round adds new
#: bodies to the server's caches and records to its ledger).  Every
#: measuring pass runs at least this many rounds.
RSS_ROUNDS = 3


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """The benchmark's command line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload: Any) -> Tuple[float, float]:
    """Set ``workload`` up; the seconds it took, raw and at reference speed."""
    from perfbench.speed import SpeedMeter

    meter = SpeedMeter()
    started = time.perf_counter()
    workload.setup()
    raw = time.perf_counter() - started
    return raw, meter.scale(raw)


def repeat_set_up(workload: Any, first: Tuple[float, float]) -> List[Tuple[float, float]]:
    """Tear down and set up again until the set-up times are enough."""
    times = [first]
    while len(times) < SETUP_MAX and (
        len(times) < SETUP_REPEATS or sum(raw for raw, _ in times) < SETUP_MIN_SECONDS
    ):
        workload.close()
        times.append(set_up(workload))
    return times


def measure(workload: Any, seconds: float) -> list:
    """Run whole rounds until ``seconds`` have passed (at least ``RSS_ROUNDS``)."""
    rounds = []
    started = time.perf_counter()
    while len(rounds) < RSS_ROUNDS or time.perf_counter() - started < seconds:
        rounds.append(workload.run_round())
        rounds[-1].peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rounds


def percentile(values: List[float], pct: int) -> float:
    """The ``pct``-th percentile of ``values`` (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_percentile(n: int) -> Optional[int]:
    """The highest of p99/p90/p50 with at least ten samples beyond it."""
    for pct in (99, 90, 50):
        if n * (100 - pct) / 100 >= 10:
            return pct
    return None


def class_latencies(workload: Any) -> Dict[str, Any]:
    """Per-class serve latencies with their sample counts."""
    out = {}
    for kind, values in getattr(workload, "class_latency", {}).items():
        ms = [v * 1000.0 for v in values]
        entry: Dict[str, Any] = {"n": len(ms)}
        if ms:
            entry["p50_ms"] = percentile(ms, 50)
            tail = tail_percentile(len(ms))
            if tail is not None:
                entry[f"p{tail}_ms"] = percentile(ms, tail)
        out[kind] = entry
    return out


def end_to_end(workload: Any, rounds: list, setup_times: List[float]) -> Dict[str, float]:
    """Every end-to-end metric of one untraced run, at reference speed.

    Walls and rates are medians over rounds.  Latency percentiles are
    taken over the inputs of a round, each at its median latency over
    the rounds, or over every latency of the run where the workload
    pools them.
    """
    def latency_percentile(pct: int) -> float:
        if workload.pooled_latency:
            return percentile([op.latency_s * 1000.0 for r in rounds for op in r.ops], pct)
        per_input = zip(*([op.latency_s for op in r.ops] for r in rounds))
        return percentile([statistics.median(ops) * 1000.0 for ops in per_input], pct)

    return {
        "compile_s": statistics.median(r.wall_s for r in rounds),
        "op_p50_ms": latency_percentile(50),
        "op_p90_ms": latency_percentile(90),
        "rps": statistics.median(len(r.ops) / r.wall_s for r in rounds),
        "cycles_total": float(rounds[0].cycles),
        "peak_rss_mb": rounds[RSS_ROUNDS - 1].peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }


def traced_layers(workload: Any, seconds: float, problems: List[str]) -> tuple:
    """Untraced rounds, then traced rounds; returns (rounds, layer table)."""
    from perfbench import layers

    serve = workload.name == "serve_mixed"
    untraced = measure(workload, seconds / 2)
    recorder = layers.SpanRecorder()
    before = workload.server_metrics() if serve else None
    patches = layers.install(recorder, serve=serve)
    try:
        traced = measure(workload, seconds / 2)
    finally:
        patches.undo()
    if serve:
        request_seconds = sum(op.raw_s for r in traced for op in r.ops)
        table = layers.serve_table(
            recorder, request_seconds, len(traced), before, workload.server_metrics()
        )
    else:
        table = layers.compile_table(recorder, [r.raw_wall_s for r in traced])
        for r in traced:
            if r.outputs != untraced[0].outputs:
                problems.append("traced round cycles differ from untraced cycles")
    if workload.name == "compile_warm":
        workload.close()
        fill = layers.SpanRecorder()
        patches = layers.install(fill, serve=False)
        try:
            fill_wall, _ = set_up(workload)
        finally:
            patches.undo()
        table["engine.cache_put"] = 100.0 * fill.self_seconds().get("engine.cache_put", 0.0) / fill_wall
    table["trace_overhead_ratio"] = statistics.median(r.wall_s for r in traced) / statistics.median(
        r.wall_s for r in untraced
    )
    return untraced + traced, table


def run(args: argparse.Namespace) -> Dict[str, Any]:
    """Set up, measure, check and tear down one workload."""
    from perfbench import speed
    from perfbench.workloads import WORKLOADS
    from repro.observability.bench import environment_fingerprint

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload](args.seed)
    try:
        setups = [set_up(workload)]
        problems = workload.prepare_reference()
        if args.trace:
            rounds, values = traced_layers(workload, args.seconds, problems)
        else:
            rounds = measure(workload, args.seconds)
        problems += workload.final_check()
        classes = class_latencies(workload)
        if not args.trace:
            setups = repeat_set_up(workload, setups[0])
            values = end_to_end(workload, rounds, [scaled for _, scaled in setups])
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if args.trace else "end_to_end"]
        }
    finally:
        workload.close()
    ops = [op for r in rounds for op in r.ops]
    failures = [op.failure for op in ops if op.failure] + problems
    attempted = len(ops)
    failed = min(attempted, len(failures))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "round_walls_s": [r.wall_s for r in rounds],
        "round_raw_walls_s": [r.raw_wall_s for r in rounds],
        "setup_raw_s": [raw for raw, _ in setups],
        "probe_median_s": statistics.median(speed.READINGS),
        "ops": attempted,
        "error_rate": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "failures": failures[:10],
        "classes": classes,
        "environment": {**environment_fingerprint(), "nproc": str(os.cpu_count())},
    }
    print(json.dumps({"report": report}, sort_keys=True))
    return {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; the result is the last line of standard output."""
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # One core for the process and the worker processes it forks: the
    # speed probes then read the core every timed piece ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

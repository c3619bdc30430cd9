"""Command-line interface.

``python -m repro <command>`` drives the library without writing code:

* ``list`` — benchmarks, passes, machines, schedulers;
* ``schedule`` — schedule one benchmark, validate it, print the result;
* ``table2`` / ``fig6`` / ``fig8`` / ``fig10`` / ``convergence`` —
  regenerate the paper's tables and figures;
* ``trace`` — dump/inspect one region's convergence trace: per-pass
  wall time, weight churn, entropy, confidence (JSONL + table); with
  ``--diff`` align two saved traces pass-by-pass instead;
* ``profile`` — compile-time breakdown across pipeline phases;
* ``bench`` — benchmark-snapshot subsystem: run the workload matrix
  into a schema-versioned ``BENCH_<n>.json``, or compare snapshots
  (``--compare A B`` / ``--against-latest``) with a CI-gating exit
  code on schedule-quality regressions;
* ``faults`` — seeded fault-injection campaign demonstrating the
  guarded pipeline's graceful degradation;
* ``verify`` — static legality verification: sweep schedulers ×
  benchmarks × machines through :mod:`repro.verify`, analyze pass
  contracts, and run differential (corrupted-schedule) campaigns;
  exits nonzero on any ERROR diagnostic;
* ``cache`` — inspect the persistent schedule cache: ``stats``,
  ``verify`` (checksum every entry; quarantines corrupt files), or
  ``gc`` (purge quarantine and stale temp files);
* ``timeline`` — render a flight ledger (``--ledger`` on ``bench`` /
  ``faults``) as per-worker Gantt lanes with queue/saturation stats,
  or export it as Chrome trace-event JSON (``--chrome-trace``);
* ``trend`` — cross-snapshot trend analysis: per-cell cycle and
  compile-time series over every committed ``BENCH_<n>.json``, with
  sparklines and regression flags;
* ``serve`` — compilation-as-a-service: the async HTTP compile server
  (``POST /compile``, ``GET /healthz``, ``GET /metrics``) with warm
  fast lane, batched engine waves, request coalescing, and bounded
  backpressure (see ``docs/serving.md``);
* ``loadtest`` — drive a live (or ``--spawn``ed) compile server with a
  seeded open/closed-loop request mix; reports latency quantiles,
  throughput, and cache hit rate, and gates on thresholds and the
  latest bench snapshot in the style of ``bench --compare``.

The hardened subcommands (``faults``, ``bench``, ``verify``, ``cache``,
``timeline``, ``trend``, ``serve``, ``loadtest``) use
distinct exit codes so CI can tell *why* a gate
went red: 0 success, 1 genuine failure or regression, 2 operator /
configuration error, 3 unexpected crash.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import re
import sys
import time
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, TYPE_CHECKING

from .core import ConvergentScheduler, PASS_REGISTRY
from .faults import run_campaign
from .harness import (
    compile_time_scaling,
    convergence_study,
    format_degradations,
    format_metrics,
    format_table,
    raw_speedups,
    run_program,
    save_result,
    vliw_speedups,
)
from .machine import ClusteredVLIW, Machine, machine_from_spec, raw_with_tiles
from .observability import (
    BenchSnapshot,
    FlightLedger,
    MetricsRegistry,
    Tracer,
    analyze_ledger,
    compare_snapshots,
    latest_snapshot_path,
    load_trends,
    next_snapshot_path,
    profile_data,
    read_jsonl,
    read_ledger,
    render_profile,
    render_timeline,
    render_trace,
    render_trace_diff,
    render_trend,
    run_bench,
    to_chrome_trace,
    trace_data,
    tracing,
)
from .sim import simulate
from .verify import make_scheduler, scheduler_registry
from .workloads import KERNELS, RAW_SUITE, VLIW_SUITE, build_benchmark, suite_for_machine
from .workloads.suite import BASELINE_SCHEDULER, MACHINES, QUICK_SUITE, baseline_machine

if TYPE_CHECKING:  # pragma: no cover - imported lazily at run time
    from .engine import CompilationEngine

#: Scheduler name -> constructor; the verification sweep's registry is
#: the single source of truth, so ``repro verify`` and ``repro
#: schedule`` can never disagree about what exists.
SCHEDULERS = scheduler_registry()

#: Process exit codes shared by the hardened subcommands: success,
#: genuine failure/regression, operator/config error, unexpected crash.
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_CRASH = 3


def _hardened(handler):
    """Wrap a subcommand handler with the exit-code discipline.

    Operator mistakes (unknown benchmark, bad machine spec, missing
    file) exit :data:`EXIT_CONFIG`; anything else unexpected exits
    :data:`EXIT_CRASH` — so a red CI gate distinguishes "you typo'd the
    invocation" from "the tool itself fell over" from a genuine
    regression (:data:`EXIT_FAILURE`, returned by the handler).

    Args:
        handler: A ``_cmd_*`` function returning an exit code.

    Returns:
        The wrapped handler.
    """

    @functools.wraps(handler)
    def run(args: argparse.Namespace) -> int:
        try:
            return handler(args)
        except (
            KeyError,
            ValueError,
            FileNotFoundError,
            argparse.ArgumentTypeError,
        ) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except Exception as exc:  # noqa: BLE001 - last-resort crash barrier
            print(f"crash: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_CRASH

    return run


def parse_machine(spec: str) -> Machine:
    """Parse a machine spec: ``vliw4``, ``raw4x4``, or ``raw16``."""
    try:
        return machine_from_spec(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _cmd_list(args: argparse.Namespace) -> int:
    print("benchmarks (raw suite):  " + " ".join(RAW_SUITE))
    print("benchmarks (vliw suite): " + " ".join(VLIW_SUITE))
    print("passes:     " + " ".join(sorted(PASS_REGISTRY)))
    print("schedulers: " + " ".join(sorted(SCHEDULERS)))
    print("machines:   vliwN | rawN | rawRxC   (e.g. vliw4, raw16, raw2x4)")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    requested = parse_machine(args.machine)
    # The baseline scheduler targets one cluster; like bench and the
    # paper tables, run it on the 1-cluster machine of the same family.
    machine = (
        baseline_machine(requested)
        if args.scheduler == BASELINE_SCHEDULER
        else requested
    )
    program = build_benchmark(args.benchmark, machine)
    scheduler = make_scheduler(args.scheduler, args.seed)
    result = run_program(program, machine, scheduler)
    where = machine.name
    if machine.name != requested.name:
        where += f" (the 1-cluster baseline for {requested.name})"
    print(
        f"{args.benchmark} on {where} with {args.scheduler}: "
        f"{result.cycles} cycles, {result.transfers} transfers, "
        f"compiled in {result.compile_seconds * 1000:.1f} ms"
        + ("" if result.ok else f"  [status: {result.status}]")
    )
    warning = format_degradations(result)
    if warning:
        print(warning)
        return 1
    if args.render:
        region = program.regions[0]
        schedule = scheduler.schedule(region, machine)
        simulate(region, machine, schedule)
        print(schedule.render(machine.n_clusters, max_cycles=args.max_cycles))
    return 0


def _split(text: Optional[str], cast=str) -> Optional[List]:
    return [cast(x) for x in text.split(",")] if text else None


def _cmd_table2(args: argparse.Namespace) -> int:
    table = raw_speedups(
        benchmarks=_split(args.benchmarks) or RAW_SUITE,
        sizes=_split(args.sizes, int) or (2, 4, 8, 16),
        check_values=not args.fast,
    )
    print(table.render("Table 2: speedup relative to one Raw tile"))
    for n in table.sizes:
        print(
            f"  convergent over rawcc at {n:2d} tiles: "
            f"{100 * table.improvement('convergent', 'rawcc', n):+.1f}%"
        )
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    table = vliw_speedups(
        benchmarks=_split(args.benchmarks) or VLIW_SUITE,
        check_values=not args.fast,
    )
    print(table.render("Figure 8: speedup on a 4-cluster VLIW vs 1 cluster"))
    print(f"  convergent over uas: {100 * table.improvement('convergent', 'uas', 4):+.1f}%")
    print(f"  convergent over pcc: {100 * table.improvement('convergent', 'pcc', 4):+.1f}%")
    return 0


def _cmd_fig10(args: argparse.Namespace) -> int:
    result = compile_time_scaling(
        sizes=_split(args.sizes, int) or (50, 100, 200, 400, 800, 1600)
    )
    print(result.render())
    return 0


def _cmd_convergence(args: argparse.Namespace) -> int:
    machine = parse_machine(args.machine)
    study = convergence_study(machine, _split(args.benchmarks) or suite_for_machine(machine))
    print(study.render())
    return 0


@contextlib.contextmanager
def _engine_from_flags(args: argparse.Namespace) -> Iterator["CompilationEngine"]:
    """The engine ``bench``, ``faults`` and ``verify`` run on.

    Built from the verb's ``--jobs`` plus, where the verb has them,
    ``--cache`` (``"mem"`` for in-memory only, anything else is a
    directory for the persistent layer) and ``--ledger PATH``.  After
    the verb's run it prints the cache's hit/miss line and flushes the
    ledger to its path.
    """
    from .engine import CompilationEngine, ScheduleCache

    cache_spec = getattr(args, "cache", None)
    cache = None
    if cache_spec is not None:
        cache = ScheduleCache(disk_dir=None if cache_spec == "mem" else cache_spec)
    ledger_path = getattr(args, "ledger", None)
    ledger = FlightLedger() if ledger_path else None
    with CompilationEngine(jobs=args.jobs, cache=cache, ledger=ledger) as engine:
        yield engine
    if cache is not None:
        stats = cache.stats
        print(
            f"schedule cache: {stats.hits} hits / {stats.misses} misses "
            f"({100 * stats.hit_rate:.0f}% hit rate), "
            f"{stats.stores} stored, {stats.evictions} evicted"
        )
    if ledger is not None:
        ledger.flush(ledger_path)
        print(f"flight ledger written to {ledger_path} ({len(ledger)} records)")


def _cmd_faults(args: argparse.Namespace) -> int:
    """Run a seeded fault-injection campaign and print the report."""
    machine = parse_machine(args.machine)
    names = _split(args.benchmarks) or list(suite_for_machine(machine))
    regions = [
        region
        for name in names
        for region in build_benchmark(name, machine).regions
    ]
    with _engine_from_flags(args) as engine:
        report = run_campaign(
            machine,
            regions,
            n_trials=args.trials,
            seed=args.seed,
            guarded_fraction=args.guarded_fraction,
            fail_fast=args.fail_fast,
            engine=engine,
        )
        print(report.render())
    return EXIT_OK if report.ok else EXIT_FAILURE


def _cmd_verify(args: argparse.Namespace) -> int:
    """Static verification: sweep, pass contracts, differential campaign."""
    import json

    from .verify import run_sweep, verify_pass_contracts

    exit_code = 0
    payload: dict = {}

    machines = [parse_machine(s) for s in _split(args.machines) or MACHINES]
    benchmarks = _split(args.benchmarks) or (list(QUICK_SUITE) if args.quick else None)

    if not args.skip_sweep:
        with _engine_from_flags(args) as engine:
            report = run_sweep(
                machines=machines,
                benchmarks=benchmarks,
                schedulers=_split(args.schedulers),
                engine=engine,
            )
            print(report.render())
        payload["sweep"] = [
            {
                "machine": c.machine,
                "benchmark": c.benchmark,
                "region": c.region,
                "scheduler": c.scheduler,
                "status": c.status,
                "codes": c.report.codes() if c.report else [],
                "detail": c.detail,
            }
            for c in report.cells
        ]
        if not report.ok:
            exit_code = EXIT_FAILURE

    if args.contracts:
        reports = verify_pass_contracts(seed=args.seed)
        bad = {name: r for name, r in reports.items() if not r.ok}
        print(
            f"pass contracts: {len(reports)} passes analyzed, "
            f"{len(bad)} violating"
        )
        for rep in bad.values():
            print(rep.render())
        payload["contracts"] = {n: r.to_dict() for n, r in reports.items()}
        if bad:
            exit_code = EXIT_FAILURE

    if args.differential:
        from .faults import run_differential_campaign

        payload["differential"] = []
        for machine in machines:
            regions = [
                region
                for name in benchmarks or suite_for_machine(machine)
                for region in build_benchmark(name, machine).regions
            ]
            diff = run_differential_campaign(
                machine, regions, n_trials=args.differential, seed=args.seed
            )
            print(diff.render())
            payload["differential"].append(
                {
                    "machine": diff.machine_name,
                    "seed": diff.seed,
                    "ok": diff.ok,
                    "n_clean": diff.n_clean,
                    "n_trials": diff.n_trials,
                    "n_sim_agree": diff.n_sim_agree,
                    "false_positives": list(diff.false_positives),
                    "missed": [
                        {"trial": t.trial, "kind": t.kind, "codes": t.codes}
                        for t in diff.missed
                    ],
                }
            )
            if not diff.ok:
                exit_code = EXIT_FAILURE

    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2))
        print(f"verification results written to {args.json}")
    return exit_code


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect, verify, or garbage-collect an on-disk schedule cache."""
    from .engine import ScheduleCache

    root = Path(args.dir)
    if not root.is_dir():
        raise FileNotFoundError(f"no such cache directory: {args.dir}")
    cache = ScheduleCache(disk_dir=root)
    if args.action == "stats":
        stats = cache.disk_stats()
        print(
            f"cache at {root}: {stats['entries']} entries, "
            f"{stats['bytes']} bytes, {stats['quarantined']} quarantined, "
            f"{stats['tmp_files']} tmp files"
        )
        return EXIT_OK
    if args.action == "verify":
        report = cache.verify_disk()
        print(
            f"cache verify at {root}: {report['checked']} checked, "
            f"{report['ok']} ok, {report['corrupt']} corrupt, "
            f"{report['version_skew']} version skew, "
            f"{report['quarantined']} quarantined"
        )
        clean = report["corrupt"] == 0 and report["version_skew"] == 0
        return EXIT_OK if clean else EXIT_FAILURE
    removed = cache.gc()
    print(
        f"cache gc at {root}: {removed['quarantine_removed']} quarantined "
        f"file(s) removed, {removed['tmp_removed']} temp file(s) removed"
    )
    return EXIT_OK


def _cmd_timeline(args: argparse.Namespace) -> int:
    """Render a flight ledger as per-worker lanes; export Chrome trace."""
    import json

    path = Path(args.ledger)
    if not path.exists():
        raise FileNotFoundError(f"no such ledger file: {args.ledger}")
    records, skipped = read_ledger(path)
    if skipped:
        print(f"note: {skipped} corrupt ledger line(s) skipped", file=sys.stderr)
    if not records:
        print(f"error: no flight records in {args.ledger}", file=sys.stderr)
        return EXIT_CONFIG
    print(render_timeline(records, width=args.width))
    if args.chrome_trace:
        Path(args.chrome_trace).write_text(
            json.dumps(to_chrome_trace(records), indent=2)
        )
        print(
            f"Chrome trace written to {args.chrome_trace} "
            "(load via chrome://tracing or ui.perfetto.dev)"
        )
    if args.json:
        Path(args.json).write_text(
            json.dumps(analyze_ledger(records).to_dict(), indent=2)
        )
        print(f"timeline stats written to {args.json}")
    return EXIT_OK


def _cmd_trend(args: argparse.Namespace) -> int:
    """Cross-snapshot trend analysis over committed BENCH_*.json files."""
    import json

    ids, trends = load_trends(
        root=args.root,
        machine=args.machine,
        benchmark=args.benchmark,
        scheduler=args.scheduler,
    )
    print(render_trend(ids, trends))
    if args.json:
        payload = {
            "snapshot_ids": ids,
            "cells": [t.to_dict() for t in trends],
        }
        Path(args.json).write_text(json.dumps(payload, indent=2))
        print(f"trend data written to {args.json}")
    if not ids:
        return EXIT_CONFIG
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the async compile server until interrupted."""
    import asyncio

    from .serve import CompileServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        client_limit=args.client_limit,
        read_timeout_s=args.read_timeout,
        ledger_path=args.ledger,
    )

    async def _serve_forever() -> None:
        server = CompileServer(config)
        await server.start()
        print(
            f"repro serve listening on http://{config.host}:{server.port} "
            f"(jobs={config.jobs}, max_batch={config.max_batch}, "
            f"queue_limit={config.queue_limit})"
        )
        try:
            await asyncio.Event().wait()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve_forever())
    except KeyboardInterrupt:
        print("repro serve: shutting down")
    return EXIT_OK


def _cmd_loadtest(args: argparse.Namespace) -> int:
    """Load-test a compile server; optionally gate on thresholds."""
    import json

    from .serve import LoadtestConfig, ServeConfig, ServerThread, run_loadtest

    spawned = None
    host, port = args.host, args.port
    if args.spawn:
        spawned = ServerThread(
            ServeConfig(host=args.host, port=0, jobs=args.jobs)
        ).start()
        host, port = spawned.host, spawned.port
        print(f"spawned compile server at {spawned.base_url}")
    config = LoadtestConfig(
        host=host,
        port=port,
        clients=args.clients,
        requests=args.requests,
        mode=args.mode,
        rate=args.rate,
        seed=args.seed,
        machines=tuple(args.machines),
        schedulers=tuple(args.schedulers) if args.schedulers else None,
        benchmarks=tuple(args.benchmarks) if args.benchmarks else None,
        warm=not args.no_warm,
    )
    try:
        report = run_loadtest(config)
    finally:
        if spawned is not None:
            spawned.stop()
    print(report.render())
    if args.json:
        Path(args.json).write_text(json.dumps(report.to_dict(), indent=2))
        print(f"load report written to {args.json}")
    violations = report.gate(
        max_p99_ms=args.gate_p99_ms,
        min_hit_rate=args.gate_hit_rate,
        max_5xx=args.gate_5xx,
        max_error_rate=args.max_error_rate,
    )
    if args.against_latest:
        latest = latest_snapshot_path()
        if latest is None:
            print(
                "error: no committed BENCH_*.json to compare against",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        mismatches = report.snapshot_mismatches(str(latest))
        violations.extend(
            f"vs {latest.name}: {mismatch}" for mismatch in mismatches
        )
        if not mismatches:
            print(f"quality matches {latest.name} on every overlapping cell")
    if violations:
        for violation in violations:
            print(f"GATE VIOLATION: {violation}")
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    """Trace one region's convergence and print the per-pass table."""
    if args.diff:
        path_a, path_b = args.diff
        for path in (path_a, path_b):
            if not Path(path).exists():
                print(f"error: no such trace file: {path}", file=sys.stderr)
                return 2
        print(
            render_trace_diff(
                read_jsonl(Path(path_a)),
                read_jsonl(Path(path_b)),
                label_a=Path(path_a).stem,
                label_b=Path(path_b).stem,
            )
        )
        return 0
    if args.benchmark is None:
        print("error: a benchmark (or --diff RUN_A RUN_B) is required",
              file=sys.stderr)
        return 2
    machine = parse_machine(args.machine)
    program = build_benchmark(args.benchmark, machine)
    if not 0 <= args.region < len(program.regions):
        print(
            f"error: region index {args.region} out of range; "
            f"{args.benchmark} has {len(program.regions)} region(s)",
            file=sys.stderr,
        )
        return 2
    region = program.regions[args.region]
    tracer = Tracer()
    with tracing(tracer):
        result = ConvergentScheduler(seed=args.seed).converge(region, machine)
    report = simulate(region, machine, result.schedule, check_values=False)
    title = (
        f"convergence trace: {args.benchmark}/{region.name} on {machine.name} "
        f"({len(region.ddg)} instructions)"
    )
    print(render_trace(tracer.records, title=title))
    print(
        f"\nfinal schedule: {report.cycles} cycles, {report.transfers} transfers"
        + (f"  [degraded: {len(result.guard.events)} guard events]"
           if result.degraded else "")
    )
    if args.out:
        tracer.write(args.out)
        print(f"trace written to {args.out} ({len(tracer.records)} JSONL records)")
    elif args.jsonl:
        print()
        print(tracer.to_jsonl())
    if args.json:
        import json

        Path(args.json).write_text(
            json.dumps(trace_data(tracer.records), indent=2)
        )
        print(f"structured trace data written to {args.json}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profile the full pipeline: where does compile time go?"""
    machine = parse_machine(args.machine)
    program = build_benchmark(args.benchmark, machine)
    scheduler = ConvergentScheduler(seed=args.seed)
    tracer = Tracer()
    registry = MetricsRegistry()
    started = time.perf_counter()
    with tracing(tracer):
        for _ in range(args.repeat):
            result = run_program(
                program,
                machine,
                scheduler,
                check_values=not args.fast,
                registry=registry,
            )
    wall_seconds = time.perf_counter() - started
    title = (
        f"compile-time profile: {args.benchmark} on {machine.name} "
        f"({result.instructions} instructions, {result.n_regions} region(s), "
        f"x{args.repeat})"
    )
    print(render_profile(tracer.records, title=title, wall_seconds=wall_seconds))
    summary = format_metrics(registry.snapshot(), title="\nrun metrics")
    if summary:
        print(summary)
    if args.out:
        tracer.write(args.out)
        print(f"profile trace written to {args.out}")
    if args.json:
        import json

        Path(args.json).write_text(
            json.dumps(
                profile_data(tracer.records, wall_seconds=wall_seconds),
                indent=2,
            )
        )
        print(f"structured profile data written to {args.json}")
    warning = format_degradations(result)
    if warning:
        print(warning)
        return 1
    return 0


def _render_snapshot_summary(snapshot) -> str:
    """Compact per-cell quality table for a fresh snapshot."""
    rows = [
        [
            cell.machine,
            cell.benchmark,
            cell.scheduler,
            cell.quality["cycles"],
            f"{cell.quality['speedup']:.2f}",
            cell.quality["transfers"],
            f"{cell.quality['utilization']:.2f}",
            f"{cell.cost['compile_seconds']:.3f}"
            + (" !" if cell.cost.get("timing_noisy") else ""),
        ]
        for cell in snapshot.cells
    ]
    title = (
        f"bench snapshot: {len(snapshot.cells)} cells, "
        f"tier {snapshot.config.get('tier')}, "
        f"{snapshot.wall_seconds:.1f}s wall, "
        f"peak RSS {snapshot.peak_rss_kb} KB"
    )
    return format_table(
        ["machine", "benchmark", "scheduler", "cycles", "speedup",
         "transfers", "util", "compile s"],
        rows,
        title=title,
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    """Benchmark snapshots: run the matrix, or compare two snapshots."""
    if args.compare:
        snap_a = BenchSnapshot.load(args.compare[0])
        snap_b = BenchSnapshot.load(args.compare[1])
        comparison = compare_snapshots(snap_a, snap_b, timing_tolerance=args.tolerance)
        print(comparison.render(show_neutral=args.all_cells))
        if args.report:
            Path(args.report).write_text(comparison.to_markdown())
            print(f"markdown report written to {args.report}")
        return EXIT_OK if comparison.ok else EXIT_FAILURE

    machines = [parse_machine(s) for s in _split(args.machines)] if args.machines else None
    with _engine_from_flags(args) as engine:
        snapshot = run_bench(
            machines=machines,
            benchmarks=_split(args.benchmarks),
            schedulers=_split(args.schedulers),
            repeats=args.repeats,
            seed=args.seed,
            quick=args.quick,
            check_values=args.check_values,
            engine=engine,
        )
        print(_render_snapshot_summary(snapshot))

    if args.against_latest:
        latest = latest_snapshot_path()
        if latest is None:
            print(
                "error: no committed BENCH_*.json to compare against; "
                "run `repro bench` first to create the baseline",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        baseline = BenchSnapshot.load(latest)
        comparison = compare_snapshots(
            baseline, snapshot, timing_tolerance=args.tolerance
        )
        print()
        print(comparison.render(show_neutral=args.all_cells))
        if args.report:
            Path(args.report).write_text(comparison.to_markdown())
            print(f"markdown report written to {args.report}")
        if args.out:
            snapshot.save(args.out)
            print(f"snapshot written to {args.out}")
        return EXIT_OK if comparison.ok else EXIT_FAILURE

    path = Path(args.out) if args.out else next_snapshot_path()
    digits = re.findall(r"BENCH_(\d+)", path.name)
    snapshot.snapshot_id = int(digits[0]) if digits else 0
    snapshot.save(path)
    print(f"snapshot written to {path}")
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    """Regenerate every table and figure; optionally save JSON results."""
    from pathlib import Path

    out_dir: Optional[Path] = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    def emit(name: str, result, text: str) -> None:
        print(text)
        print()
        if out_dir is not None:
            save_result(result, out_dir / f"{name}.json")

    sizes = _split(args.sizes, int) or (2, 4, 8, 16)
    table2 = raw_speedups(benchmarks=RAW_SUITE, sizes=sizes, check_values=False)
    emit("table2", table2, table2.render("Table 2: speedup vs one Raw tile"))
    fig8 = vliw_speedups(benchmarks=VLIW_SUITE, check_values=False)
    emit("fig8", fig8, fig8.render("Figure 8: 4-cluster VLIW speedups"))
    fig7 = convergence_study(raw_with_tiles(16), RAW_SUITE)
    emit("fig7", fig7, fig7.render("Figure 7: convergence on Raw"))
    fig9 = convergence_study(ClusteredVLIW(4), VLIW_SUITE)
    emit("fig9", fig9, fig9.render("Figure 9: convergence on Chorus"))
    fig10 = compile_time_scaling(sizes=_split(args.scaling_sizes, int) or (50, 100, 200, 400, 800))
    emit("fig10", fig10, fig10.render())
    if out_dir is not None:
        print(f"results saved under {out_dir}/")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Convergent scheduling (MICRO-35 2002) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks, passes, schedulers, machines")

    schedule = sub.add_parser("schedule", help="schedule one benchmark")
    schedule.add_argument("--benchmark", required=True, choices=sorted(KERNELS))
    schedule.add_argument("--machine", default="vliw4")
    schedule.add_argument("--scheduler", default="convergent", choices=sorted(SCHEDULERS))
    schedule.add_argument("--seed", type=int, default=None)
    schedule.add_argument("--render", action="store_true", help="print the timeline")
    schedule.add_argument("--max-cycles", type=int, default=48)

    table2 = sub.add_parser("table2", help="Rawcc vs convergent speedups")
    table2.add_argument("--benchmarks", help="comma-separated subset")
    table2.add_argument("--sizes", help="comma-separated tile counts")
    table2.add_argument("--fast", action="store_true", help="skip dataflow replay")

    fig8 = sub.add_parser("fig8", help="PCC vs UAS vs convergent on VLIW")
    fig8.add_argument("--benchmarks")
    fig8.add_argument("--fast", action="store_true")

    fig10 = sub.add_parser("fig10", help="compile-time scaling")
    fig10.add_argument("--sizes")

    conv = sub.add_parser("convergence", help="per-pass assignment churn")
    conv.add_argument("--machine", default="raw4x4")
    conv.add_argument("--benchmarks")

    run_all = sub.add_parser("all", help="regenerate every table and figure")
    run_all.add_argument("--out", help="directory for JSON result files")
    run_all.add_argument("--sizes", help="tile counts for table2")
    run_all.add_argument("--scaling-sizes", help="graph sizes for fig10")

    trace = sub.add_parser(
        "trace", help="per-pass convergence trace (churn/entropy/confidence/time)"
    )
    trace.add_argument("benchmark", nargs="?", choices=sorted(KERNELS))
    trace.add_argument("--machine", default="vliw4")
    trace.add_argument("--region", type=int, default=0, help="region index")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", help="write the JSONL trace to this path")
    trace.add_argument(
        "--jsonl", action="store_true", help="also dump raw JSONL to stdout"
    )
    trace.add_argument(
        "--diff",
        nargs=2,
        metavar=("RUN_A", "RUN_B"),
        help="align two saved JSONL traces pass-by-pass and diff them",
    )
    trace.add_argument(
        "--json", metavar="PATH",
        help="write the structured per-pass data as JSON to this path",
    )

    bench = sub.add_parser(
        "bench", help="benchmark snapshots: run the matrix or compare BENCH_*.json"
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="3-benchmark fast tier for pre-commit / CI gating",
    )
    bench.add_argument("--machines", help="comma-separated machine specs")
    bench.add_argument("--benchmarks", help="comma-separated subset")
    bench.add_argument("--schedulers", help="comma-separated scheduler subset")
    bench.add_argument("--repeats", type=int, default=None, help="timing repeats")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--check-values", action="store_true",
        help="replay dataflow during simulation (slower; same cycles)",
    )
    bench.add_argument("--out", help="snapshot path (default: next BENCH_<n>.json)")
    bench.add_argument(
        "--compare", nargs=2, metavar=("A", "B"),
        help="diff two snapshot files instead of running",
    )
    bench.add_argument(
        "--against-latest", action="store_true",
        help="run, then diff against the latest committed BENCH_*.json "
             "(exit 1 on quality regression)",
    )
    bench.add_argument(
        "--tolerance", type=float, default=0.2,
        help="relative compile-time tolerance for the diff (default 0.2)",
    )
    bench.add_argument(
        "--report", help="also write the comparison as markdown to this path"
    )
    bench.add_argument(
        "--all-cells", action="store_true", help="show neutral cells in the diff"
    )
    bench.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for cell fan-out (quality columns are "
             "byte-identical to a serial run)",
    )
    bench.add_argument(
        "--cache", metavar="DIR",
        help="schedule cache: a directory for the persistent layer, or "
             "'mem' for in-memory only",
    )
    bench.add_argument(
        "--ledger", metavar="PATH",
        help="write a per-region flight ledger (JSONL) to this path; "
             "quality columns are unaffected",
    )

    profile = sub.add_parser(
        "profile", help="compile-time breakdown across pipeline phases"
    )
    profile.add_argument("benchmark", choices=sorted(KERNELS))
    profile.add_argument("--machine", default="vliw4")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--repeat", type=int, default=1, help="profiling repetitions")
    profile.add_argument("--fast", action="store_true", help="skip dataflow replay")
    profile.add_argument("--out", help="write the JSONL trace to this path")
    profile.add_argument(
        "--json", metavar="PATH",
        help="write the structured breakdown as JSON to this path",
    )

    faults = sub.add_parser("faults", help="seeded fault-injection campaign")
    faults.add_argument("--machine", default="vliw4")
    faults.add_argument("--benchmarks", help="comma-separated subset")
    faults.add_argument("--trials", type=int, default=100)
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument(
        "--guarded-fraction",
        type=float,
        default=0.75,
        help="fraction of trials with the pass guard enabled",
    )
    faults.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for trial fan-out (same report as serial)",
    )
    faults.add_argument(
        "--fail-fast", action="store_true",
        help="stop dispatching trials as soon as one crashes "
             "(report is marked truncated)",
    )
    faults.add_argument(
        "--ledger", metavar="PATH",
        help="write a per-trial flight ledger (JSONL) to this path; "
             "the report is unaffected",
    )

    verify = sub.add_parser(
        "verify",
        help="static legality verification (exit 1 on any ERROR diagnostic)",
    )
    verify.add_argument("--machines", help="comma-separated machine specs")
    verify.add_argument("--benchmarks", help="comma-separated subset")
    verify.add_argument("--schedulers", help="comma-separated scheduler subset")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--quick", action="store_true",
        help="the quick tier shared with bench --quick, for pre-commit / CI gating",
    )
    verify.add_argument(
        "--skip-sweep", action="store_true",
        help="skip the scheduler x benchmark sweep",
    )
    verify.add_argument(
        "--contracts", action="store_true",
        help="also analyze every registered pass against its contracts",
    )
    verify.add_argument(
        "--differential", type=int, default=0, metavar="N",
        help="also corrupt N known-good schedules per machine and demand "
             "the verifier flags every one",
    )
    verify.add_argument("--json", help="write all results as JSON to this path")
    verify.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for sweep fan-out (same report as serial)",
    )
    verify.add_argument(
        "--cache", metavar="DIR",
        help="schedule cache directory (or 'mem'); hits skip scheduling "
             "but every schedule is still statically verified",
    )

    cache = sub.add_parser(
        "cache", help="inspect the persistent schedule cache"
    )
    cache.add_argument(
        "action", choices=["stats", "verify", "gc"],
        help="stats: size summary; verify: checksum every entry "
             "(quarantines corrupt files, exit 1 if any); gc: purge "
             "quarantine and stale temp files",
    )
    cache.add_argument("--dir", required=True, help="cache directory")

    timeline = sub.add_parser(
        "timeline",
        help="per-worker Gantt lanes and saturation stats from a flight "
             "ledger (see bench/faults --ledger)",
    )
    timeline.add_argument("ledger", help="flight-ledger JSONL file")
    timeline.add_argument(
        "--width", type=int, default=72, help="lane width in characters"
    )
    timeline.add_argument(
        "--chrome-trace", metavar="PATH",
        help="also export Chrome trace-event JSON (chrome://tracing, "
             "ui.perfetto.dev)",
    )
    timeline.add_argument(
        "--json", metavar="PATH",
        help="write the timeline stats as JSON to this path",
    )

    trend = sub.add_parser(
        "trend",
        help="per-cell cycle/compile-time series across every committed "
             "BENCH_<n>.json, with regression flags",
    )
    trend.add_argument(
        "--root", help="directory holding BENCH_<n>.json files (default: cwd)"
    )
    trend.add_argument("--machine", help="keep only cells of this machine")
    trend.add_argument("--benchmark", help="keep only cells of this benchmark")
    trend.add_argument("--scheduler", help="keep only cells of this scheduler")
    trend.add_argument(
        "--json", metavar="PATH",
        help="write the trend series as JSON to this path",
    )

    serve = sub.add_parser(
        "serve",
        help="compilation-as-a-service: async HTTP server with POST "
             "/compile, GET /healthz, GET /metrics (see docs/serving.md)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8377,
        help="bind port (0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--jobs", type=int, default=1, help="engine worker processes"
    )
    serve.add_argument(
        "--cache-dir", help="shared on-disk schedule cache directory"
    )
    serve.add_argument(
        "--max-batch", type=int, default=8,
        help="most requests folded into one engine wave",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64,
        help="cold requests queued before shedding with 429",
    )
    serve.add_argument(
        "--client-limit", type=int, default=16,
        help="concurrent requests per client before shedding with 429",
    )
    serve.add_argument(
        "--read-timeout", type=float, default=30.0,
        help="seconds before a dawdling connection is dropped",
    )
    serve.add_argument(
        "--ledger", metavar="PATH",
        help="flush the flight ledger here on shutdown (repro timeline)",
    )

    loadtest = sub.add_parser(
        "loadtest",
        help="drive a compile server with a seeded request mix; report "
             "latency quantiles and optionally gate like bench --compare",
    )
    loadtest.add_argument("--host", default="127.0.0.1", help="server address")
    loadtest.add_argument(
        "--port", type=int, default=8377, help="server port"
    )
    loadtest.add_argument(
        "--spawn", action="store_true",
        help="boot a private server on an ephemeral port for this run",
    )
    loadtest.add_argument(
        "--jobs", type=int, default=1,
        help="engine workers for the spawned server (with --spawn)",
    )
    loadtest.add_argument(
        "--clients", type=int, default=4, help="concurrent load clients"
    )
    loadtest.add_argument(
        "--requests", type=int, default=100, help="total measured requests"
    )
    loadtest.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
        help="closed loop (clients wait) or open loop (fixed-rate arrivals)",
    )
    loadtest.add_argument(
        "--rate", type=float, default=200.0,
        help="open-loop arrival rate, requests/second",
    )
    loadtest.add_argument(
        "--seed", type=int, default=0, help="request-mix seed"
    )
    loadtest.add_argument(
        "--machines", nargs="+", default=list(MACHINES),
        help="machine specs in the mix",
    )
    loadtest.add_argument(
        "--schedulers", nargs="+",
        help="schedulers in the mix (default: each machine's paper line-up)",
    )
    loadtest.add_argument(
        "--benchmarks", nargs="+",
        help="benchmarks in the mix (default: the quick tier)",
    )
    loadtest.add_argument(
        "--no-warm", action="store_true",
        help="skip the unmeasured cache-warming pass",
    )
    loadtest.add_argument(
        "--json", metavar="PATH", help="write the load report as JSON"
    )
    loadtest.add_argument(
        "--gate-p99-ms", type=float,
        help="fail if p99 latency exceeds this many milliseconds",
    )
    loadtest.add_argument(
        "--gate-hit-rate", type=float,
        help="fail if the warm-cache hit rate is below this fraction",
    )
    loadtest.add_argument(
        "--gate-5xx", type=int, default=0,
        help="fail if more than this many 5xx responses land (default 0)",
    )
    loadtest.add_argument(
        "--max-error-rate", type=float, default=0.0,
        help="fail if errors exceed this fraction of requests (default 0)",
    )
    loadtest.add_argument(
        "--against-latest", action="store_true",
        help="cross-check served cycles against the latest BENCH_<n>.json",
    )

    return parser


#: The CI-gating subcommands run behind the :func:`_hardened` exit-code
#: barrier; the interactive/reporting ones keep argparse's defaults.
_COMMANDS = {
    "all": _cmd_all,
    "bench": _hardened(_cmd_bench),
    "cache": _hardened(_cmd_cache),
    "list": _cmd_list,
    "schedule": _cmd_schedule,
    "table2": _cmd_table2,
    "fig8": _cmd_fig8,
    "fig10": _cmd_fig10,
    "convergence": _cmd_convergence,
    "faults": _hardened(_cmd_faults),
    "loadtest": _hardened(_cmd_loadtest),
    "profile": _cmd_profile,
    "serve": _hardened(_cmd_serve),
    "timeline": _hardened(_cmd_timeline),
    "trace": _cmd_trace,
    "trend": _hardened(_cmd_trend),
    "verify": _hardened(_cmd_verify),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

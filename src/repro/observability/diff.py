"""Comparing runs: snapshot diffs and pass-aligned trace diffs.

Two comparison engines live here:

* :func:`compare_snapshots` — given two :class:`~repro.observability.
  bench.BenchSnapshot` objects, classify every shared (benchmark,
  machine, scheduler) cell as **improved / regressed / neutral**.
  Quality fields (cycles, then transfers as a tie-break) are
  exact-match gated — the pipeline is deterministic, so *any* cycle
  change is a real change; compile-time cells use a configurable
  relative tolerance since wall time is inherently noisy.  The result
  renders as a terminal diff table or a markdown report, and its
  :attr:`BenchComparison.ok` drives the CI perf gate's exit code
  (quality regressions fail the build; timing shifts only warn).
* :func:`align_traces` / :func:`render_trace_diff` — align two
  convergence traces (``repro trace --out`` JSONL files) pass-by-pass
  and show where churn, entropy, confidence, and per-pass wall time
  diverge.  Alignment uses a longest-common-subsequence match on the
  pass-name sequences, so an inserted or quarantined pass shows up as
  a one-sided row instead of shifting every row after it.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .bench import BenchSnapshot
from .render import PASS_SPAN_PREFIX, _format_table, pass_spans
from .tracer import TraceRecord

#: Cell verdicts.
IMPROVED = "improved"
REGRESSED = "regressed"
NEUTRAL = "neutral"
ADDED = "added"
REMOVED = "removed"

#: Default relative tolerance for compile-time comparisons (20%).
DEFAULT_TIMING_TOLERANCE = 0.2

#: Status ranking used to detect degradations (higher is worse).
_STATUS_RANK = {"ok": 0, "partial": 1, "failed": 2}


@dataclass
class CellDelta:
    """Comparison outcome for one (benchmark, machine, scheduler) cell.

    Attributes:
        benchmark: Benchmark name.
        machine: Machine name.
        scheduler: Scheduler name.
        verdict: One of :data:`IMPROVED`, :data:`REGRESSED`,
            :data:`NEUTRAL`, :data:`ADDED`, :data:`REMOVED`.
        quality_changes: Changed quality fields, ``{name: (a, b)}``.
        seconds_a: Baseline median compile seconds (``None`` for
            one-sided cells).
        seconds_b: Candidate median compile seconds.
        timing_rel: Relative compile-time change ``(b - a) / a``, or
            ``None`` when either side is missing or zero.
        timing_flagged: True when ``|timing_rel|`` exceeds the
            comparison tolerance (informational; never gates).
    """

    benchmark: str
    machine: str
    scheduler: str
    verdict: str
    quality_changes: Dict[str, Tuple[object, object]] = field(default_factory=dict)
    seconds_a: Optional[float] = None
    seconds_b: Optional[float] = None
    timing_rel: Optional[float] = None
    timing_flagged: bool = False

    @property
    def key(self) -> Tuple[str, str, str]:
        """The cell identity (benchmark, machine, scheduler)."""
        return (self.benchmark, self.machine, self.scheduler)


@dataclass
class BenchComparison:
    """The full outcome of comparing two snapshots.

    Attributes:
        a_label: Short name of the baseline snapshot.
        b_label: Short name of the candidate snapshot.
        timing_tolerance: Relative tolerance used for compile time.
        deltas: One :class:`CellDelta` per cell in either snapshot.
    """

    a_label: str
    b_label: str
    timing_tolerance: float
    deltas: List[CellDelta] = field(default_factory=list)

    @property
    def regressions(self) -> List[CellDelta]:
        """Cells whose schedule quality got worse (gates CI)."""
        return [d for d in self.deltas if d.verdict == REGRESSED]

    @property
    def timing_flags(self) -> List[CellDelta]:
        """Cells whose compile time moved beyond the tolerance."""
        return [d for d in self.deltas if d.timing_flagged]

    @property
    def ok(self) -> bool:
        """True when no quality regression was found."""
        return not self.regressions

    def summary(self) -> str:
        """One-line verdict count."""
        counts = {}
        for delta in self.deltas:
            counts[delta.verdict] = counts.get(delta.verdict, 0) + 1
        parts = [
            f"{counts.get(v, 0)} {v}"
            for v in (IMPROVED, REGRESSED, NEUTRAL, ADDED, REMOVED)
            if counts.get(v, 0)
        ]
        timing = len(self.timing_flags)
        if timing:
            parts.append(f"{timing} timing shift(s) beyond ±{self.timing_tolerance:.0%}")
        return f"{self.a_label} -> {self.b_label}: " + (", ".join(parts) or "no cells")

    def render(self, show_neutral: bool = False) -> str:
        """Terminal diff table plus the summary line.

        Args:
            show_neutral: Include unchanged and removed cells in the
                table (the default shows only cells with something to
                say — removed cells are routine when a quick tier is
                compared against a full baseline, so they only appear
                in the summary count).

        Returns:
            The rendered report text.
        """
        rows = []
        for delta in self.deltas:
            if delta.verdict in (NEUTRAL, REMOVED) and not (
                show_neutral or delta.timing_flagged
            ):
                continue
            rows.append(_delta_row(delta))
        lines = []
        if rows:
            lines.append(
                _format_table(
                    ["benchmark", "machine", "scheduler", "cycles", "speedup",
                     "compile s", "verdict"],
                    rows,
                    title=f"bench diff: {self.a_label} -> {self.b_label}",
                )
            )
        lines.append(self.summary())
        if not self.ok:
            lines.append(
                f"QUALITY REGRESSION: {len(self.regressions)} cell(s) got worse"
            )
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """Markdown report with the full cell table (CI artifact)."""
        lines = [
            f"# Bench diff: `{self.a_label}` → `{self.b_label}`",
            "",
            f"- verdict: {'OK' if self.ok else 'QUALITY REGRESSION'}",
            f"- {self.summary()}",
            f"- timing tolerance: ±{self.timing_tolerance:.0%} "
            "(timing shifts never gate)",
            "",
            "| benchmark | machine | scheduler | cycles | speedup | compile s | verdict |",
            "|---|---|---|---|---|---|---|",
        ]
        for delta in self.deltas:
            cells = _delta_row(delta)
            lines.append("| " + " | ".join(str(c) for c in cells) + " |")
        lines.append("")
        return "\n".join(lines)


def _fmt_change(a, b, fmt: str = "{}") -> str:
    """``a -> b`` when changed, else just the value."""
    if a is None:
        return f"- -> {fmt.format(b)}"
    if b is None:
        return f"{fmt.format(a)} -> -"
    if a == b:
        return fmt.format(a)
    return f"{fmt.format(a)} -> {fmt.format(b)}"


def _delta_row(delta: CellDelta) -> List[str]:
    """One render/markdown table row for a cell delta."""
    qa = delta.quality_changes
    cycles = _fmt_change(*qa.get("cycles", (None, None))) if "cycles" in qa else "="
    speedup = (
        _fmt_change(*qa.get("speedup", (None, None)), fmt="{:.2f}")
        if "speedup" in qa else "="
    )
    if delta.verdict in (ADDED, REMOVED):
        cycles = speedup = "-"
        side = delta.seconds_b if delta.verdict == ADDED else delta.seconds_a
        timing = f"{side:.3f}" if side is not None else "-"
    elif delta.timing_rel is None:
        timing = "="
    else:
        flag = " !" if delta.timing_flagged else ""
        timing = (
            f"{delta.seconds_a:.3f} -> {delta.seconds_b:.3f} "
            f"({delta.timing_rel:+.0%}){flag}"
        )
    return [
        delta.benchmark,
        delta.machine,
        delta.scheduler,
        cycles,
        speedup,
        timing,
        delta.verdict,
    ]


def classify_cell(a_cell, b_cell, timing_tolerance: float) -> CellDelta:
    """Classify one shared cell: quality exact-gated, timing tolerant.

    Args:
        a_cell: Baseline :class:`~repro.observability.bench.BenchCell`.
        b_cell: Candidate cell with the same key.
        timing_tolerance: Relative compile-time tolerance (0.2 = 20%).

    Returns:
        The :class:`CellDelta` with verdict and per-field changes.
    """
    qa, qb = a_cell.quality, b_cell.quality
    changes: Dict[str, Tuple[object, object]] = {}
    for name in ("cycles", "transfers", "speedup", "utilization", "comm_busy",
                 "status"):
        if qa.get(name) != qb.get(name):
            changes[name] = (qa.get(name), qb.get(name))
    rank_a = _STATUS_RANK.get(str(qa.get("status", "ok")), 2)
    rank_b = _STATUS_RANK.get(str(qb.get("status", "ok")), 2)
    # Quality ordering: status first (a failing schedule beats nothing),
    # then cycles, then transfers as the tie-break.  Exact match only —
    # the pipeline is deterministic, so any difference is a real change.
    key_a = (rank_a, qa.get("cycles", 0), qa.get("transfers", 0))
    key_b = (rank_b, qb.get("cycles", 0), qb.get("transfers", 0))
    if key_b > key_a:
        verdict = REGRESSED
    elif key_b < key_a:
        verdict = IMPROVED
    else:
        verdict = NEUTRAL
    seconds_a = _seconds(a_cell)
    seconds_b = _seconds(b_cell)
    timing_rel = None
    flagged = False
    if seconds_a and seconds_b is not None and seconds_a > 0:
        timing_rel = (seconds_b - seconds_a) / seconds_a
        flagged = abs(timing_rel) > timing_tolerance
    return CellDelta(
        benchmark=a_cell.benchmark,
        machine=a_cell.machine,
        scheduler=a_cell.scheduler,
        verdict=verdict,
        quality_changes=changes,
        seconds_a=seconds_a,
        seconds_b=seconds_b,
        timing_rel=timing_rel,
        timing_flagged=flagged,
    )


def _seconds(cell) -> Optional[float]:
    """Median compile seconds of a cell, or ``None``."""
    value = cell.cost.get("compile_seconds")
    return float(value) if value is not None else None


def compare_snapshots(
    a: BenchSnapshot,
    b: BenchSnapshot,
    timing_tolerance: float = DEFAULT_TIMING_TOLERANCE,
) -> BenchComparison:
    """Compare two snapshots cell-by-cell.

    Cells present in only one snapshot are reported as :data:`ADDED`
    or :data:`REMOVED` and never gate — a quick-tier run legitimately
    covers a subset of a full baseline.

    Args:
        a: Baseline snapshot (usually the committed ``BENCH_<n>.json``).
        b: Candidate snapshot (usually freshly measured).
        timing_tolerance: Relative compile-time tolerance.

    Returns:
        The :class:`BenchComparison`; ``comparison.ok`` is False iff a
        shared cell's schedule quality regressed.
    """
    map_a, map_b = a.cell_map(), b.cell_map()
    deltas: List[CellDelta] = []
    for key in sorted(set(map_a) | set(map_b), key=lambda k: (k[1], k[0], k[2])):
        cell_a, cell_b = map_a.get(key), map_b.get(key)
        if cell_a is None:
            deltas.append(
                CellDelta(*key, verdict=ADDED, seconds_b=_seconds(cell_b))
            )
        elif cell_b is None:
            deltas.append(
                CellDelta(*key, verdict=REMOVED, seconds_a=_seconds(cell_a))
            )
        else:
            deltas.append(classify_cell(cell_a, cell_b, timing_tolerance))
    label_a = f"BENCH_{a.snapshot_id}" if a.snapshot_id else "A"
    label_b = f"BENCH_{b.snapshot_id}" if b.snapshot_id else "B"
    return BenchComparison(
        a_label=label_a,
        b_label=label_b,
        timing_tolerance=timing_tolerance,
        deltas=deltas,
    )


# ----------------------------------------------------------------------
# Trace diff: pass-by-pass alignment of two convergence traces
# ----------------------------------------------------------------------


def align_traces(
    a_records: Sequence[TraceRecord],
    b_records: Sequence[TraceRecord],
) -> List[Tuple[Optional[TraceRecord], Optional[TraceRecord]]]:
    """Align two traces' pass spans by longest common subsequence.

    Args:
        a_records: Records of the baseline trace.
        b_records: Records of the candidate trace.

    Returns:
        Aligned ``(a_span, b_span)`` pairs in execution order; a pass
        present on only one side pairs with ``None``.
    """
    a_passes = pass_spans(a_records)
    b_passes = pass_spans(b_records)
    matcher = difflib.SequenceMatcher(
        a=[r.name for r in a_passes], b=[r.name for r in b_passes], autojunk=False
    )
    pairs: List[Tuple[Optional[TraceRecord], Optional[TraceRecord]]] = []
    for tag, a_lo, a_hi, b_lo, b_hi in matcher.get_opcodes():
        if tag == "equal":
            pairs.extend(zip(a_passes[a_lo:a_hi], b_passes[b_lo:b_hi]))
            continue
        for record in a_passes[a_lo:a_hi]:
            pairs.append((record, None))
        for record in b_passes[b_lo:b_hi]:
            pairs.append((None, record))
    return pairs


def _metric(record: Optional[TraceRecord], name: str) -> Optional[float]:
    """A numeric field of a span, or ``None`` for a missing side."""
    if record is None:
        return None
    value = record.fields.get(name)
    return float(value) if value is not None else None


def _pair_cells(a_val, b_val, fmt: str = "{:.4f}") -> List[str]:
    """Three columns for one metric: A, B, and the delta."""
    left = fmt.format(a_val) if a_val is not None else "-"
    right = fmt.format(b_val) if b_val is not None else "-"
    if a_val is None or b_val is None:
        delta = "-"
    else:
        delta = ("=" if a_val == b_val else f"{b_val - a_val:+.4f}")
    return [left, right, delta]


def render_trace_diff(
    a_records: Sequence[TraceRecord],
    b_records: Sequence[TraceRecord],
    label_a: str = "A",
    label_b: str = "B",
) -> str:
    """Pass-aligned diff table of two convergence traces.

    Args:
        a_records: Records of the baseline trace.
        b_records: Records of the candidate trace.
        label_a: Display name of the baseline.
        label_b: Display name of the candidate.

    Returns:
        The rendered table plus a divergence summary line.
    """
    pairs = align_traces(a_records, b_records)
    rows = []
    diverged = 0
    for a_span, b_span in pairs:
        name = (a_span or b_span).name[len(PASS_SPAN_PREFIX):]
        churn = _pair_cells(_metric(a_span, "l1_churn"), _metric(b_span, "l1_churn"))
        entropy = _pair_cells(
            _metric(a_span, "mean_entropy"), _metric(b_span, "mean_entropy")
        )
        confidence = _pair_cells(
            _metric(a_span, "mean_confidence"), _metric(b_span, "mean_confidence")
        )
        ms_a = (a_span.duration_s or 0.0) * 1000 if a_span else None
        ms_b = (b_span.duration_s or 0.0) * 1000 if b_span else None
        if (a_span is None or b_span is None
                or churn[2] != "=" or entropy[2] != "=" or confidence[2] != "="):
            diverged += 1
        if a_span is not None and b_span is not None:
            side = "both"
        else:
            side = label_a if a_span is not None else label_b
        rows.append(
            [name, side] + churn + entropy + confidence
            + [
                f"{ms_a:.2f}" if ms_a is not None else "-",
                f"{ms_b:.2f}" if ms_b is not None else "-",
            ]
        )
    table = _format_table(
        ["pass", "in",
         f"churn {label_a}", f"churn {label_b}", "Δchurn",
         f"entr {label_a}", f"entr {label_b}", "Δentr",
         f"conf {label_a}", f"conf {label_b}", "Δconf",
         f"ms {label_a}", f"ms {label_b}"],
        rows,
        title=f"trace diff: {label_a} vs {label_b} ({len(pairs)} aligned passes)",
    )
    verdict = (
        "traces agree on every aligned pass"
        if diverged == 0
        else f"{diverged}/{len(pairs)} pass rows diverge"
    )
    return table + "\n" + verdict

"""Schedule corruptions for differential verifier testing.

Where :mod:`repro.faults.chaos` attacks the *pass pipeline* (bad
weights), this module attacks finished *schedules*: each corruption in
:data:`CORRUPTION_REGISTRY` takes a known-legal schedule and applies one
precisely-understood illegal edit — shift a consumer before its operand
arrives, double-book a functional unit, move a pinned instruction off
its only legal cluster, lie about a latency, drop a needed transfer, or
launch a transfer before the value exists.

The point is calibration of :func:`repro.verify.verify_schedule`: every
corruption maps to the exact diagnostic codes it must trigger
(:data:`EXPECTED_CODES`), so the differential campaign
(:mod:`repro.faults.differential`) can demand that 100% of corrupted
schedules are flagged and that clean schedules never are.

Corruptions never mutate their input; they return a fresh
:class:`~repro.schedulers.schedule.Schedule` (or ``None`` when the kind
does not apply to this schedule, e.g. dropping a transfer from a
schedule that has none).

:func:`corrupt_cache_files` does the same to the on-disk schedule
cache: it damages entry files in place so tests can prove the cache
detects, quarantines and recomputes every one of them.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..ir.regions import Region
from ..machine.machine import Machine
from ..schedulers.schedule import Schedule

#: Corruption kind -> the V2xx codes at least one of which it must
#: trigger in :func:`repro.verify.verify_schedule`.
EXPECTED_CODES: Dict[str, Tuple[str, ...]] = {
    "early_start": ("V208", "V209"),
    "double_book": ("V206",),
    "bad_cluster": ("V204",),
    "wrong_latency": ("V205",),
    "drop_transfer": ("V210",),
    "early_transfer": ("V211",),
}


def _clone(schedule: Schedule) -> Schedule:
    """Copy ``schedule`` with fresh op/comm containers.

    The contained :class:`~repro.schedulers.schedule.ScheduledOp` and
    :class:`~repro.schedulers.schedule.CommEvent` values are frozen, so
    sharing them between the original and the clone is safe.
    """
    return Schedule(
        region_name=schedule.region_name,
        machine_name=schedule.machine_name,
        ops=dict(schedule.ops),
        comms=list(schedule.comms),
        scheduler_name=schedule.scheduler_name,
    )


def _pick(rng: np.random.Generator, items: List) -> object:
    """One uniformly random element of a non-empty list."""
    return items[int(rng.integers(0, len(items)))]


def corrupt_early_start(
    schedule: Schedule, region: Region, machine: Machine, rng: np.random.Generator
) -> Optional[Schedule]:
    """Shift one consumer to start before its operand is available.

    Picks a dependence edge whose timing constraint binds at a cycle
    greater than zero and moves the consumer one cycle too early —
    guaranteed V208 (value edges) or V209 (ordering edges).

    Args:
        schedule: A legal schedule to corrupt.
        region: The region the schedule implements.
        machine: The target machine (unused; kept for a uniform API).
        rng: Seeded generator choosing the edge.

    Returns:
        The corrupted schedule, or ``None`` if every constraint binds
        at cycle zero (nothing can be moved earlier).
    """
    ddg = region.ddg
    candidates: List[Tuple[int, int]] = []  # (consumer uid, illegal start)
    for edge in ddg.edges():
        if edge.src not in schedule.ops or edge.dst not in schedule.ops:
            continue
        src_op, dst_op = schedule.ops[edge.src], schedule.ops[edge.dst]
        if edge.carries_value and ddg.instruction(edge.src).defines_value:
            available = schedule.arrival_of(edge.src, dst_op.cluster)
            if available is not None and available > 0:
                candidates.append((edge.dst, available - 1))
        else:
            required = src_op.start + edge.latency
            if required > 0:
                candidates.append((edge.dst, required - 1))
    if not candidates:
        return None
    uid, start = _pick(rng, candidates)
    corrupted = _clone(schedule)
    corrupted.ops[uid] = replace(corrupted.ops[uid], start=start)
    return corrupted


def corrupt_double_book(
    schedule: Schedule, region: Region, machine: Machine, rng: np.random.Generator
) -> Optional[Schedule]:
    """Issue two instructions on the same functional unit in the same
    cycle — guaranteed V206.

    Args:
        schedule: A legal schedule to corrupt.
        region: The region the schedule implements (unused).
        machine: The target machine (unused).
        rng: Seeded generator choosing the colliding pair.

    Returns:
        The corrupted schedule, or ``None`` if no functional unit hosts
        two instructions.
    """
    by_unit: Dict[Tuple[int, int], List[int]] = {}
    for uid, op in schedule.ops.items():
        if op.unit >= 0:
            by_unit.setdefault((op.cluster, op.unit), []).append(uid)
    crowded = sorted(k for k, uids in by_unit.items() if len(uids) >= 2)
    if not crowded:
        return None
    key = _pick(rng, crowded)
    uids = sorted(by_unit[key], key=lambda u: schedule.ops[u].start)
    first, second = uids[0], uids[1]
    corrupted = _clone(schedule)
    corrupted.ops[second] = replace(
        corrupted.ops[second], start=corrupted.ops[first].start
    )
    return corrupted


def corrupt_bad_cluster(
    schedule: Schedule, region: Region, machine: Machine, rng: np.random.Generator
) -> Optional[Schedule]:
    """Move a cluster-pinned instruction to a different cluster.

    Targets instructions pinned by explicit preplacement or by hard
    memory-bank affinity, whose only legal cluster is the one they sit
    on — guaranteed V204.

    Args:
        schedule: A legal schedule to corrupt.
        region: The region the schedule implements.
        machine: The target machine model.
        rng: Seeded generator choosing the victim.

    Returns:
        The corrupted schedule, or ``None`` when the machine has a
        single cluster or nothing is pinned.
    """
    if machine.n_clusters < 2:
        return None
    ddg = region.ddg
    pinned = []
    for uid in sorted(schedule.ops):
        if not 0 <= uid < len(ddg):
            continue
        inst = ddg.instruction(uid)
        if inst.home_cluster is not None or (
            inst.is_memory
            and inst.bank is not None
            and machine.memory_affinity == "hard"
        ):
            pinned.append(uid)
    if not pinned:
        return None
    uid = _pick(rng, pinned)
    corrupted = _clone(schedule)
    op = corrupted.ops[uid]
    corrupted.ops[uid] = replace(op, cluster=(op.cluster + 1) % machine.n_clusters)
    return corrupted


def corrupt_wrong_latency(
    schedule: Schedule, region: Region, machine: Machine, rng: np.random.Generator
) -> Optional[Schedule]:
    """Record a latency one cycle longer than the machine model's —
    guaranteed V205.

    Args:
        schedule: A legal schedule to corrupt.
        region: The region the schedule implements.
        machine: The target machine (unused).
        rng: Seeded generator choosing the victim.

    Returns:
        The corrupted schedule, or ``None`` for an empty schedule.
    """
    uids = sorted(
        uid for uid in schedule.ops if 0 <= uid < len(region.ddg)
    )
    if not uids:
        return None
    uid = _pick(rng, uids)
    corrupted = _clone(schedule)
    op = corrupted.ops[uid]
    corrupted.ops[uid] = replace(op, latency=op.latency + 1)
    return corrupted


def corrupt_drop_transfer(
    schedule: Schedule, region: Region, machine: Machine, rng: np.random.Generator
) -> Optional[Schedule]:
    """Delete every transfer carrying one value to a cluster that reads
    it remotely — guaranteed V210.

    Args:
        schedule: A legal schedule to corrupt.
        region: The region the schedule implements.
        machine: The target machine (unused).
        rng: Seeded generator choosing the (value, cluster) pair.

    Returns:
        The corrupted schedule, or ``None`` when no consumer depends on
        a transferred value.
    """
    ddg = region.ddg
    needed = set()
    for edge in ddg.edges():
        if edge.src not in schedule.ops or edge.dst not in schedule.ops:
            continue
        if not (edge.carries_value and ddg.instruction(edge.src).defines_value):
            continue
        src_op, dst_op = schedule.ops[edge.src], schedule.ops[edge.dst]
        if src_op.cluster != dst_op.cluster:
            needed.add((edge.src, dst_op.cluster))
    served = sorted(
        pair
        for pair in needed
        if any(
            ev.producer_uid == pair[0] and ev.dst == pair[1]
            for ev in schedule.comms
        )
    )
    if not served:
        return None
    producer, cluster = _pick(rng, served)
    corrupted = _clone(schedule)
    corrupted.comms = [
        ev
        for ev in corrupted.comms
        if not (ev.producer_uid == producer and ev.dst == cluster)
    ]
    return corrupted


def corrupt_early_transfer(
    schedule: Schedule, region: Region, machine: Machine, rng: np.random.Generator
) -> Optional[Schedule]:
    """Launch one transfer a cycle before its value is produced.

    Issue and arrival shift together, so the route timing stays
    internally consistent and only the readiness rule breaks —
    guaranteed V211.

    Args:
        schedule: A legal schedule to corrupt.
        region: The region the schedule implements (unused).
        machine: The target machine (unused).
        rng: Seeded generator choosing the transfer.

    Returns:
        The corrupted schedule, or ``None`` when no transfer can be
        moved before its producer's finish without going negative.
    """
    candidates = []
    for idx, ev in enumerate(schedule.comms):
        producer = schedule.ops.get(ev.producer_uid)
        if producer is not None and producer.finish >= 1 and ev.issue >= producer.finish:
            candidates.append(idx)
    if not candidates:
        return None
    idx = _pick(rng, candidates)
    corrupted = _clone(schedule)
    ev = corrupted.comms[idx]
    producer = corrupted.ops[ev.producer_uid]
    delta = (producer.finish - 1) - ev.issue
    corrupted.comms[idx] = replace(
        ev, issue=ev.issue + delta, arrival=ev.arrival + delta
    )
    return corrupted


#: Corruption kind -> callable(schedule, region, machine, rng) that
#: returns a corrupted copy or ``None`` when the kind does not apply.
CORRUPTION_REGISTRY: Dict[
    str,
    Callable[
        [Schedule, Region, Machine, np.random.Generator], Optional[Schedule]
    ],
] = {
    "early_start": corrupt_early_start,
    "double_book": corrupt_double_book,
    "bad_cluster": corrupt_bad_cluster,
    "wrong_latency": corrupt_wrong_latency,
    "drop_transfer": corrupt_drop_transfer,
    "early_transfer": corrupt_early_transfer,
}


def corrupt_schedule(
    schedule: Schedule,
    region: Region,
    machine: Machine,
    kind: str,
    rng: np.random.Generator,
) -> Optional[Schedule]:
    """Apply one named corruption to a copy of ``schedule``.

    Args:
        schedule: A legal schedule to corrupt (never mutated).
        region: The region the schedule implements.
        machine: The target machine model.
        kind: A key of :data:`CORRUPTION_REGISTRY`.
        rng: Seeded generator behind every random choice.

    Returns:
        The corrupted schedule, or ``None`` when ``kind`` does not
        apply to this schedule.

    Raises:
        KeyError: If ``kind`` is not a registered corruption.
    """
    return CORRUPTION_REGISTRY[kind](schedule, region, machine, rng)


def corrupt_cache_files(
    cache_dir: str, rng: np.random.Generator, fraction: float = 0.5
) -> int:
    """Vandalize a seeded subset of disk-cache entry files in place.

    Four corruption modes rotate over the victims: truncation (partial
    write), wholesale garbage (disk corruption), a single flipped byte
    inside the JSON (silent bit rot — caught by the checksum), and a
    version-skew rewrite (a newer writer's file format).

    Args:
        cache_dir: The cache's disk directory.
        rng: Seeded generator choosing victims.
        fraction: Fraction of entry files to damage.

    Returns:
        Number of files corrupted.
    """
    entries = sorted(
        name
        for name in os.listdir(cache_dir)
        if name.endswith(".json") and os.path.isfile(os.path.join(cache_dir, name))
    )
    n_victims = max(1, int(len(entries) * fraction)) if entries else 0
    victims = list(rng.choice(len(entries), size=n_victims, replace=False))
    for mode_index, victim in enumerate(sorted(victims)):
        path = os.path.join(cache_dir, entries[int(victim)])
        raw = open(path, "rb").read()
        mode = mode_index % 4
        if mode == 0:  # truncation
            with open(path, "wb") as fh:
                fh.write(raw[: max(1, len(raw) // 3)])
        elif mode == 1:  # garbage
            with open(path, "wb") as fh:
                fh.write(b"\x00\xffnot json at all\x80" * 4)
        elif mode == 2:  # one-byte bit flip inside the payload
            position = min(len(raw) - 2, (len(raw) // 2) + 5)
            flipped = bytes([raw[position] ^ 0x20])
            with open(path, "wb") as fh:
                fh.write(raw[:position] + flipped + raw[position + 1 :])
        else:  # version skew
            text = raw.decode("utf-8", errors="replace")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace('"file_version": 1', '"file_version": 999', 1))
    return n_victims

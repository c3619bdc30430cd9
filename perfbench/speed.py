"""Host-speed probe: timings scaled to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to a factor of two over minutes and spikes for fractions of a second,
which no amount of repetition inside one run averages away.  Every timed
interval is therefore bracketed by a short, fixed probe that does not
touch the program under test, and its time is scaled by how much slower
than ``REFERENCE_PROBE_S`` the probes around it ran::

    scaled = raw * REFERENCE_PROBE_S / geometric_mean(probe_before, probe_after)

A scaled time reads as seconds on a host running at the reference speed.
The work the program under test does is measured in full; only the
host's speed is divided out.  The raw figures go to the report line.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List

import numpy as np

#: Seconds of one probe piece on a calm 2-vCPU Xeon host: the speed
#: every scaled time is expressed at.  A constant, so that two commits
#: are scaled alike.
REFERENCE_PROBE_S = 0.0004

#: Pieces timed per probe; the probe reads their median, so one
#: preemption inside a probe does not move it.
PROBE_PIECES = 5

_VECTOR = np.arange(64, dtype=np.float64)
_STREAM = np.ones(200_000)
_SINK = np.empty_like(_STREAM)

#: Every probe reading of this process, for the report line.
READINGS: List[float] = []


def _piece() -> float:
    """About 0.5 ms of work: an interpreter loop and small arrays, each a
    little over a quarter of its time at the host's median speed, and
    memory streaming, the rest.

    Which part tracks the program under test best changes with what
    slows the host.  In three slow spells measured hours apart, the
    interpreted parts slowed 1.7-2.2 times as much as the compile
    workloads (log-log slope 0.45-0.6), and memory streaming from 1.5
    times as much to two thirds as much (slope 0.66-1.5).  The best share
    of memory streaming ranged from a third to three fifths; this mix
    sits between, within a tenth of the best spread in every spell.
    """
    table: dict = {}
    window: list = []
    total = 0.0
    for i in range(350):
        key = i & 127
        table[key] = table.get(key, 0) + i
        window.append(key * 3)
        if len(window) > 64:
            window.pop(0)
        total += window[-1] * 0.5
    row = _VECTOR.copy()
    for _ in range(16):
        row = row * 0.5 + 1.0
        total += float(row.sum())
        row /= row.max()
    np.multiply(_STREAM, 1.0001, out=_SINK)
    np.add(_SINK, 1.0, out=_SINK)
    return total + float(_SINK[-1])


def probe() -> float:
    """Median seconds of one probe piece right now."""
    times = []
    for _ in range(PROBE_PIECES):
        started = time.perf_counter()
        _piece()
        times.append(time.perf_counter() - started)
    READINGS.append(statistics.median(times))
    return READINGS[-1]


class SpeedMeter:
    """Probes at the ends of consecutive timed intervals.

    Create it right before the first interval; after each interval,
    ``scale()`` probes again and brings that interval to the reference
    speed.
    """

    def __init__(self) -> None:
        self.last = probe()

    def scale(self, raw_s: float) -> float:
        """``raw_s``, the interval just ended, at the reference speed."""
        now = probe()
        scaled = raw_s * REFERENCE_PROBE_S / math.sqrt(self.last * now)
        self.last = now
        return scaled

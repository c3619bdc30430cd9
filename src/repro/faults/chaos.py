"""Chaos passes: deliberately misbehaving scheduling heuristics.

Each class below is a legal :class:`~repro.core.passes.SchedulingPass`
that models one realistic failure mode of a preference-map heuristic:

* :class:`NaNInjector` — numeric overflow/0-by-0 division leaking NaN
  into the weights;
* :class:`WeightCorruptor` — a sign bug producing negative weights;
* :class:`ZeroRowPass` — an over-aggressive squash erasing every
  feasible slot of an instruction;
* :class:`RaisingPass` — a plain crash in the middle of ``apply``.

All randomness is drawn from the :class:`PassContext` RNG, so fault
campaigns replay deterministically from a seed.  These passes are for
tests and campaigns only — they are deliberately *not* registered in
:data:`repro.core.passes.PASS_REGISTRY`.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..core.passes import PassContext, SchedulingPass


class InjectedFault(RuntimeError):
    """The exception :class:`RaisingPass` throws."""


class NaNInjector(SchedulingPass):
    """Set ``count`` random weight entries to NaN."""

    name = "FAULT_NAN"

    def __init__(self, count: int = 3) -> None:
        self.count = count

    def apply(self, ctx: PassContext) -> None:
        w = ctx.matrix.data
        if w.size == 0:
            return
        flat = ctx.rng.integers(0, w.size, size=self.count)
        w.flat[flat] = np.nan
        ctx.matrix.touch()


class WeightCorruptor(SchedulingPass):
    """Flip ``count`` random entries to negative values (a sign bug)."""

    name = "FAULT_NEGATIVE"

    def __init__(self, count: int = 4, magnitude: float = 2.0) -> None:
        self.count = count
        self.magnitude = magnitude

    def apply(self, ctx: PassContext) -> None:
        w = ctx.matrix.data
        if w.size == 0:
            return
        flat = ctx.rng.integers(0, w.size, size=self.count)
        w.flat[flat] = -self.magnitude * (1.0 + ctx.rng.random(self.count))
        ctx.matrix.touch()


class ZeroRowPass(SchedulingPass):
    """Erase every weight of one random instruction (over-squashing)."""

    name = "FAULT_ZERO_ROW"

    def apply(self, ctx: PassContext) -> None:
        matrix = ctx.matrix
        if matrix.n_instructions == 0:
            return
        victim = int(ctx.rng.integers(0, matrix.n_instructions))
        matrix.data[victim] = 0.0
        matrix.touch()


class RaisingPass(SchedulingPass):
    """Raise :class:`InjectedFault` mid-apply, after touching the matrix.

    The partial mutation before the raise is the nasty part: a naive
    try/except without rollback would continue from a half-applied
    update.  The guard's checkpoint restore erases it.
    """

    name = "FAULT_RAISE"

    def __init__(self, message: str = "injected fault") -> None:
        self.message = message

    def apply(self, ctx: PassContext) -> None:
        if ctx.matrix.n_instructions:
            ctx.matrix.scale(0, 7.0)  # half-applied work the rollback must undo
        raise InjectedFault(self.message)


#: Fault kind -> zero-argument constructor, in deterministic order.
#: Frozen since PR 4: campaign plans draw from ``sorted(FAULT_REGISTRY)``,
#: so adding a key here would silently reshuffle every seeded campaign.
FAULT_REGISTRY: Dict[str, Callable[[], SchedulingPass]] = {
    "nan": NaNInjector,
    "negative": WeightCorruptor,
    "zero_row": ZeroRowPass,
    "raise": RaisingPass,
}

def make_fault(kind: str) -> SchedulingPass:
    """Instantiate a chaos pass by registry kind.

    Args:
        kind: A key of :data:`FAULT_REGISTRY`.

    Returns:
        A fresh instance of the corresponding pass.
    """
    constructor = FAULT_REGISTRY.get(kind)
    if constructor is None:
        known = ", ".join(sorted(FAULT_REGISTRY))
        raise KeyError(f"unknown fault kind {kind!r}; known kinds: {known}") from None
    return constructor()

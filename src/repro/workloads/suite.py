"""Benchmark suites and run line-ups, as evaluated in the paper.

* :data:`RAW_SUITE` — the nine benchmarks of Table 2 / Figures 6 and 7
  (Raw benchmark suite, Nasa7 kernels, Spec95 excerpts, sha).
* :data:`VLIW_SUITE` — the seven benchmarks of Figures 8 and 9.

This module is the one place that decides what a default run covers —
``repro bench``, ``repro verify``, ``repro loadtest`` and the paper
tables all expand these names:

* :data:`MACHINES` — the two machine models of the evaluation;
* :data:`QUICK_SUITE` — the quick tier, a subset of both suites;
* :func:`suite_for_machine` / :func:`schedulers_for_machine` — the
  published benchmarks and scheduler comparison of a machine family;
* :data:`BASELINE_SCHEDULER` on :func:`baseline_machine` — the
  single-cluster run every speedup divides by.

:func:`build_benchmark` instantiates a kernel and binds its memory banks
and cross-region values to a concrete machine via congruence analysis.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..ir.regions import Program
from ..machine import machine_from_spec
from ..machine.machine import Machine
from .congruence import apply_congruence
from .kernels import KERNELS

#: Table 2 order.
RAW_SUITE: Tuple[str, ...] = (
    "cholesky",
    "tomcatv",
    "vpenta",
    "mxm",
    "fpppp-kernel",
    "sha",
    "swim",
    "jacobi",
    "life",
)

#: Figure 8 order.
VLIW_SUITE: Tuple[str, ...] = (
    "vvmul",
    "rbsorf",
    "yuv",
    "tomcatv",
    "mxm",
    "fir",
    "cholesky",
)

#: Machine specs every default run covers: the Raw mesh of Table 2 and
#: the 4-cluster VLIW of Figure 8.
MACHINES: Tuple[str, ...] = ("raw4x4", "vliw4")

#: The quick tier: three benchmarks present in *both* suites, so a quick
#: run on any default machine always intersects a full one.
QUICK_SUITE: Tuple[str, ...] = ("cholesky", "mxm", "tomcatv")

#: Speedups divide by this scheduler's cycles on :func:`baseline_machine`.
BASELINE_SCHEDULER = "single"

#: Benchmarks whose preplacement carries little information (the paper's
#: explanation for where convergent scheduling loses on Raw).
LOW_PREPLACEMENT: Tuple[str, ...] = ("fpppp-kernel", "sha")


def build_benchmark(
    name: str,
    machine: Optional[Machine] = None,
    **kernel_args,
) -> Program:
    """Build benchmark ``name``; apply congruence when given a machine.

    Keyword arguments (``unroll``, ``banks``, ...) are forwarded to the
    kernel generator; each kernel's defaults match the scale used in the
    experiment harness.
    """
    try:
        kernel = KERNELS[name]
    except KeyError:
        known = ", ".join(sorted(KERNELS))
        raise KeyError(f"unknown benchmark {name!r}; available: {known}") from None
    program = kernel(**kernel_args)
    if machine is not None:
        apply_congruence(program, machine)
    return program


def _is_raw(machine: Machine) -> bool:
    """Whether ``machine`` belongs to the Raw family (else clustered VLIW)."""
    return machine.name.startswith("raw")


def suite_for_machine(machine: Machine) -> Sequence[str]:
    """The published benchmark list for a machine family."""
    return RAW_SUITE if _is_raw(machine) else VLIW_SUITE


def schedulers_for_machine(machine: Machine) -> Tuple[str, ...]:
    """The paper's scheduler line-up for a machine family, in paper order.

    Raw compares Rawcc against convergent scheduling (Table 2); the
    clustered VLIW compares PCC and UAS against it (Figure 8).
    """
    if _is_raw(machine):
        return ("rawcc", "convergent")
    return ("pcc", "uas", "convergent")


def baseline_machine(machine: Machine) -> Machine:
    """The 1-cluster sibling used as the speedup denominator.

    The :data:`BASELINE_SCHEDULER` runs here, on a single-tile or
    single-cluster machine of the same family (congruence then maps
    every bank onto it), exactly like the paper's denominators — a
    single-cluster scheduler on a clustered machine would be infeasible
    whenever preplacement pins banks to other clusters.
    """
    return machine_from_spec("raw1x1" if _is_raw(machine) else "vliw1")

"""Benchmark kernels, suites, congruence analysis, synthetic graphs."""

from .congruence import apply_congruence, clear_preplacement
from .kernels import KERNELS
from .suite import (
    LOW_PREPLACEMENT,
    RAW_SUITE,
    VLIW_SUITE,
    build_benchmark,
    suite_for_machine,
)
from .synthetic import fat_graph, layered_graph, thin_graph

__all__ = [
    "KERNELS",
    "LOW_PREPLACEMENT",
    "RAW_SUITE",
    "VLIW_SUITE",
    "apply_congruence",
    "build_benchmark",
    "clear_preplacement",
    "fat_graph",
    "layered_graph",
    "suite_for_machine",
    "thin_graph",
]

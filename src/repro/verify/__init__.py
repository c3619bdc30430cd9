"""Static verification of schedules, graphs, matrices, and passes.

The paper's premise is that independent heuristic passes *converge* on a
legal schedule; this package independently proves that legality.  It is
a translation-validation layer: four checkers re-derive the scheduling
constraints from first principles (never by calling the simulator) and
report findings through a structured diagnostic model with stable codes
(see ``docs/verification.md`` for the registry):

* :func:`verify_ddg` — graph structure: acyclicity, def-before-use,
  latency-table consistency, region well-formedness (``V1xx``);
* :func:`verify_schedule` — space-time legality: dependence timing
  under true latencies and communication delays, functional-unit and
  network contention, route feasibility, makespan (``V2xx``);
* :func:`verify_matrix` — preference-matrix invariants (``V3xx``);
* :func:`verify_pass_contracts` / :func:`analyze_pass` — each
  registered pass honors its declared contracts (``V4xx``).

:func:`run_sweep` drives the checkers over whole benchmark suites, and
the harness (:func:`repro.harness.run_region` with ``verify=True``) and
the ``repro verify`` CLI verb expose them end-to-end.
"""

from .contracts import (
    ContractFixture,
    analyze_pass,
    default_fixtures,
    verify_pass_contracts,
)
from .ddg_checks import verify_ddg
from .diagnostics import (
    DIAGNOSTIC_CODES,
    ERROR,
    WARNING,
    Diagnostic,
    DiagnosticSpec,
    VerificationError,
    VerificationReport,
    make_diagnostic,
)
from .matrix_checks import verify_matrix
from .schedule_checks import verify_schedule
from .sweep import (
    SweepCell,
    SweepReport,
    make_scheduler,
    run_sweep,
    scheduler_registry,
)

__all__ = [
    "ContractFixture",
    "DIAGNOSTIC_CODES",
    "Diagnostic",
    "DiagnosticSpec",
    "ERROR",
    "SweepCell",
    "SweepReport",
    "VerificationError",
    "VerificationReport",
    "WARNING",
    "analyze_pass",
    "default_fixtures",
    "make_diagnostic",
    "make_scheduler",
    "run_sweep",
    "scheduler_registry",
    "verify_ddg",
    "verify_matrix",
    "verify_pass_contracts",
    "verify_schedule",
]

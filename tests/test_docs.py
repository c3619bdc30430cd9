"""Documentation quality gates.

The docs are a deliverable: these tests keep the top-level documents
present and truthful, and enforce docstring coverage across the public
surface — every module, every public class, every public function.
"""

import argparse
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent


def walk_modules():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name == "repro.__main__":  # runs the CLI on import
            continue
        names.append(info.name)
    return [importlib.import_module(n) for n in sorted(names)]


class TestDocumentsExist:
    @pytest.mark.parametrize(
        "name", ["README.md", "DESIGN.md", "EXPERIMENTS.md",
                 "docs/passes.md", "docs/machines.md",
                 "docs/architecture.md", "docs/observability.md",
                 "docs/benchmarking.md", "docs/verification.md",
                 "docs/engine.md", "docs/resilience.md",
                 "docs/kernels.md", "docs/telemetry.md",
                 "docs/serving.md"]
    )
    def test_document_present_and_substantial(self, name):
        path = ROOT / name
        assert path.exists(), f"{name} missing"
        assert len(path.read_text()) > 1500, f"{name} looks stubbed"

    def test_readme_covers_the_essentials(self):
        text = (ROOT / "README.md").read_text()
        for needle in ("Convergent Scheduling", "MICRO-35", "pip install",
                       "ConvergentScheduler", "EXPERIMENTS.md", "examples/"):
            assert needle in text

    def test_design_lists_every_experiment(self):
        text = (ROOT / "DESIGN.md").read_text()
        for needle in ("Table 2", "Fig. 6", "Fig. 7", "Fig. 8", "Fig. 9",
                       "Fig. 10", "Table 1"):
            assert needle in text

    def test_experiments_records_paper_vs_measured(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        assert "paper" in text.lower()
        assert "+21%" in text  # the paper's headline, for comparison
        assert "Known deviations" in text

    def test_passes_doc_covers_every_registered_pass(self):
        from repro.core.passes import PASS_REGISTRY

        text = (ROOT / "docs" / "passes.md").read_text()
        for name in PASS_REGISTRY:
            assert f"## {name}" in text, f"docs/passes.md missing {name}"

    def test_kernels_doc_covers_every_registered_pass(self):
        from repro.core.passes import PASS_REGISTRY

        text = (ROOT / "docs" / "kernels.md").read_text()
        for name in PASS_REGISTRY:
            assert f"## {name}" in text, f"docs/kernels.md missing {name}"
        for needle in ("RegionIndex", "bit-compat", "tobytes",
                       "np.add.at", "gathered_row_sums",
                       "region_hop_distances",
                       "tests/test_core_kernels.py", "op order"):
            assert needle in text, f"docs/kernels.md missing {needle!r}"

    def test_passes_doc_references_the_kernel_layer(self):
        text = (ROOT / "docs" / "passes.md").read_text()
        for needle in ("repro.core.kernels", "kernels.md",
                       "_reference_update"):
            assert needle in text, f"docs/passes.md missing {needle!r}"

    def test_architecture_doc_references_the_kernel_layer(self):
        text = (ROOT / "docs" / "architecture.md").read_text()
        for needle in ("repro.core.kernels", "kernels.md", "RegionIndex"):
            assert needle in text, f"docs/architecture.md missing {needle!r}"

    def test_readme_documents_every_cli_verb(self):
        from repro.cli import build_parser

        text = (ROOT / "README.md").read_text()
        subparsers = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        for verb in subparsers.choices:
            assert f"`{verb}`" in text, f"README.md missing CLI verb {verb}"

    def test_observability_doc_covers_the_cli_and_schema(self):
        text = (ROOT / "docs" / "observability.md").read_text()
        for needle in ("repro trace", "repro profile", "l1_churn",
                       "mean_entropy", "mean_confidence", "NullTracer",
                       "JSONL"):
            assert needle in text, f"docs/observability.md missing {needle!r}"

    def test_benchmarking_doc_covers_schema_and_policy(self):
        text = (ROOT / "docs" / "benchmarking.md").read_text()
        for needle in ("repro bench", "BENCH_", "schema_version",
                       "--against-latest", "--compare", "regressed",
                       "timing_noisy", "trace --diff",
                       "check_bench_schema"):
            assert needle in text, f"docs/benchmarking.md missing {needle!r}"

    def test_verification_doc_covers_checkers_and_codes(self):
        from repro.verify import DIAGNOSTIC_CODES

        text = (ROOT / "docs" / "verification.md").read_text()
        for needle in ("repro verify", "verify_ddg", "verify_schedule",
                       "verify_matrix", "verify_pass_contracts",
                       "verify=True", "VerificationError",
                       "check_diag_codes"):
            assert needle in text, f"docs/verification.md missing {needle!r}"
        for code in DIAGNOSTIC_CODES:
            assert f"`{code}`" in text, f"docs/verification.md missing {code}"

    def test_engine_doc_covers_pool_cache_and_cli(self):
        text = (ROOT / "docs" / "engine.md").read_text()
        for needle in ("CompilationEngine", "ScheduleCache", "schedule_key",
                       "FINGERPRINT_SCHEMA_VERSION", "--jobs", "--cache",
                       "check_fingerprint_schema", "tests/test_engine.py",
                       "LRU", "index"):
            assert needle in text, f"docs/engine.md missing {needle!r}"

    def test_resilience_doc_covers_the_machinery(self):
        text = (ROOT / "docs" / "resilience.md").read_text()
        for needle in ("BrokenProcessPool", "pool_breaks",
                       "resilience.rescues", "capture_errors", "quarantine",
                       "repro cache", "corrupt_cache_files", "FallbackChain",
                       "degradation_level", "PassGuard",
                       "RESILIENCE_COUNTERS", "docs/engine.md"):
            assert needle in text, f"docs/resilience.md missing {needle!r}"

    def test_telemetry_doc_covers_ledger_and_verbs(self):
        text = (ROOT / "docs" / "telemetry.md").read_text()
        for needle in ("repro timeline", "repro trend", "--chrome-trace",
                       "--ledger", "QuantileHistogram", "FlightLedger",
                       "queue_wait_s", "execute_s", "p50", "p99",
                       "os.replace", "check_counter_names",
                       "TELEMETRY_NAMES", "compile_p50", "cache_hit_rate"):
            assert needle in text, f"docs/telemetry.md missing {needle!r}"

    def test_serving_doc_covers_protocol_and_policy(self):
        text = (ROOT / "docs" / "serving.md").read_text()
        for needle in ("repro serve", "repro loadtest", "/compile",
                       "/healthz", "/metrics", "compile_request",
                       "WIRE_SCHEMA_VERSION", "Retry-After", "429",
                       "coalesced", "adjacency", "--gate-p99-ms",
                       "--against-latest", "--mode open",
                       "check_counter_names", "FlightRecord"):
            assert needle in text, f"docs/serving.md missing {needle!r}"

    def test_serving_doc_is_cross_linked(self):
        for name in ("README.md", "docs/architecture.md"):
            text = (ROOT / name).read_text()
            assert "serving.md" in text, f"{name} does not link serving.md"

    def test_telemetry_doc_is_cross_linked(self):
        for name in ("docs/observability.md", "docs/engine.md", "README.md"):
            text = (ROOT / name).read_text()
            assert "telemetry.md" in text, f"{name} does not link telemetry.md"

    def test_engine_doc_links_resilience(self):
        text = (ROOT / "docs" / "engine.md").read_text()
        for needle in ("docs/resilience.md", "BrokenProcessPool",
                       "pool_breaks", "resilience.rescues"):
            assert needle in text, f"docs/engine.md missing {needle!r}"

    def test_readme_documents_engine_flags(self):
        text = (ROOT / "README.md").read_text()
        for needle in ("--jobs", "--cache", "docs/engine.md"):
            assert needle in text, f"README.md missing {needle!r}"

    def test_readme_tracks_performance(self):
        text = (ROOT / "README.md").read_text()
        assert "Tracking performance" in text
        assert "docs/benchmarking.md" in text

    def test_architecture_doc_maps_every_package(self):
        text = (ROOT / "docs" / "architecture.md").read_text()
        packages = [
            p.name for p in (ROOT / "src" / "repro").iterdir()
            if p.is_dir() and (p / "__init__.py").exists()
        ]
        for package in packages:
            assert f"repro.{package}" in text, (
                f"docs/architecture.md missing repro.{package}"
            )


class TestAudits:
    """The scripts/ audits double as tests so CI and pytest agree."""

    def _run(self, script):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        return subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script)],
            capture_output=True, text=True, env=env, cwd=ROOT,
        )

    def test_docstring_audit_passes(self):
        proc = self._run("check_docstrings.py")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_link_audit_passes(self):
        proc = self._run("check_links.py")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_bench_schema_audit_passes(self):
        proc = self._run("check_bench_schema.py")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_counter_name_audit_passes(self):
        proc = self._run("check_counter_names.py")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_diag_code_audit_passes(self):
        proc = self._run("check_diag_codes.py")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_fingerprint_schema_audit_passes(self):
        proc = self._run("check_fingerprint_schema.py")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_pass_docs_audit_passes(self):
        proc = self._run("check_pass_docs.py")
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestDocstringCoverage:
    def test_every_module_has_a_docstring(self):
        missing = [m.__name__ for m in walk_modules() if not inspect.getdoc(m)]
        assert missing == []

    def test_every_public_class_documented(self):
        missing = []
        for module in walk_modules():
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isclass(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue  # re-export
                if not inspect.getdoc(obj):
                    missing.append(f"{module.__name__}.{name}")
        assert missing == []

    def test_every_public_function_documented(self):
        missing = []
        for module in walk_modules():
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                if not inspect.getdoc(obj):
                    missing.append(f"{module.__name__}.{name}")
        assert missing == []

    def test_public_methods_of_core_classes_documented(self):
        from repro.core.convergent import ConvergentScheduler
        from repro.core.weights import PreferenceMatrix
        from repro.ir.ddg import DataDependenceGraph
        from repro.schedulers.list_scheduler import ListScheduler
        from repro.sim.simulator import SimulationReport

        missing = []
        for cls in (PreferenceMatrix, DataDependenceGraph, ListScheduler,
                    ConvergentScheduler, SimulationReport):
            for name, member in vars(cls).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(member) and not inspect.getdoc(member):
                    missing.append(f"{cls.__name__}.{name}")
        assert missing == []

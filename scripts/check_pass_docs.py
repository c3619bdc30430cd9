#!/usr/bin/env python
"""Pass and CLI documentation audit: registries vs docs vs README, no drift.

The pass registry (`repro.core.passes.PASS_REGISTRY`) is the single
source of truth for what passes exist.  This audit fails when the
documentation falls out of step with it:

* every registered pass has a ``## NAME`` section in ``docs/passes.md``
  (its update rule) and in ``docs/kernels.md`` (its kernel derivation);
* every registered pass is mentioned somewhere in ``README.md``;
* the README states the registered pass count with the right number
  word (historically it said "eleven" after REGPRESS made it twelve);
* the published sequences quoted in ``docs/passes.md`` match the
  constants in ``repro.core.sequences`` token for token;
* the README's CLI verb table lists exactly the subcommands
  ``repro.cli.build_parser()`` registers;
* the README's ``schedule`` row names exactly the schedulers
  ``repro.verify.sweep.scheduler_registry()`` holds (the
  ``--scheduler`` choices).

Exit status 0 when clean, 1 with a per-problem report otherwise.
Run from the repository root::

    PYTHONPATH=src python scripts/check_pass_docs.py
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import List, Set

#: English words for plausible registry sizes, used to check the
#: README's prose count.  A size outside this range fails loudly.
COUNT_WORDS = {
    9: "nine", 10: "ten", 11: "eleven", 12: "twelve",
    13: "thirteen", 14: "fourteen", 15: "fifteen", 16: "sixteen",
}


def readme_verbs(readme: str) -> Set[str]:
    """Verbs in the README's CLI table: rows shaped ``| `verb` | ... |``."""
    section = readme.split("## Command-line interface", 1)[-1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([a-z0-9]+)` \|", section, flags=re.MULTILINE))


def readme_schedulers(readme: str) -> Set[str]:
    """Backticked names after "`--scheduler` picks" in the ``schedule`` row,
    up to the row's first ``;``."""
    row = re.search(r"^\| `schedule` \|.*$", readme, flags=re.MULTILINE)
    if row is None or "`--scheduler` picks" not in row.group(0):
        return set()
    picks = row.group(0).split("`--scheduler` picks", 1)[1].split(";", 1)[0]
    return set(re.findall(r"`([a-z0-9_-]+)`", picks))


def parser_verbs() -> Set[str]:
    """Subcommands registered by :func:`repro.cli.build_parser`."""
    from repro.cli import build_parser

    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return set(action.choices)
    return set()


def _drift(label: str, documented: Set[str], actual: Set[str]) -> List[str]:
    """One problem line per name the README lists but the code lacks, or
    the other way round."""
    problems = [f"README.md: {label} lists {name!r}, which does not exist"
                for name in sorted(documented - actual)]
    problems += [f"README.md: {label} omits {name!r}"
                 for name in sorted(actual - documented)]
    return problems


def main() -> int:
    """Entry point; returns the process exit code."""
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from repro.core.passes import PASS_REGISTRY
    from repro.core import sequences

    problems: List[str] = []
    passes_doc = (root / "docs" / "passes.md").read_text()
    kernels_doc = (root / "docs" / "kernels.md").read_text()
    readme = (root / "README.md").read_text()

    for name in sorted(PASS_REGISTRY):
        if f"## {name}" not in passes_doc:
            problems.append(f"docs/passes.md: no '## {name}' section")
        if f"## {name}" not in kernels_doc:
            problems.append(f"docs/kernels.md: no '## {name}' section")
        if name not in readme:
            problems.append(f"README.md: registered pass {name} never mentioned")

    count = len(PASS_REGISTRY)
    word = COUNT_WORDS.get(count)
    if word is None:
        problems.append(
            f"registry has {count} passes - extend COUNT_WORDS in this audit"
        )
    elif word not in readme:
        problems.append(
            f"README.md: does not state the registered pass count "
            f"({count} = {word!r})"
        )
    for stale, stale_count in COUNT_WORDS.items():
        if stale != count and f"all {stale_count} passes" in readme:
            problems.append(
                f"README.md: stale count phrase 'all {stale_count} passes' "
                f"(registry has {count})"
            )

    for const in ("RAW_SEQUENCE", "VLIW_SEQUENCE", "TUNED_VLIW_SEQUENCE"):
        quoted = " ".join(getattr(sequences, const))
        if quoted not in passes_doc:
            problems.append(
                f"docs/passes.md: `{const}` row does not match "
                f"repro.core.sequences ({quoted})"
            )

    from repro.verify.sweep import scheduler_registry

    verbs = parser_verbs()
    problems += _drift("the CLI verb table", readme_verbs(readme), verbs)
    schedulers = set(scheduler_registry())
    problems += _drift(
        "the `schedule --scheduler` list", readme_schedulers(readme), schedulers
    )

    if problems:
        print(f"pass-docs audit FAILED ({len(problems)} problem(s)):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(
        f"pass-docs audit ok: {count} registered passes documented in "
        "docs/passes.md, docs/kernels.md, and README.md; README lists the "
        f"{len(verbs)} CLI verbs and {len(schedulers)} schedulers"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""pydocstyle-lite: docstring audit of the public API.

Walks the packages named on the command line (default: ``repro.core``,
``repro.harness``, and ``repro.observability``) and fails when the
public surface is under-documented.  Rules, deliberately smaller than pydocstyle's:

* every public module, class, function, and method has a docstring;
* a public callable with two or more real parameters (``self``/``cls``
  excluded, ``*args``/``**kwargs`` ignored) documents them under an
  ``Args:`` (or ``Arguments:``/``Attributes:`` for dataclass inits)
  section;
* a public callable whose docstring contains ``Args:`` and whose
  signature declares a non-``None`` return annotation also carries a
  ``Returns:`` (or ``Yields:``) section — if you documented the inputs
  formally, document the output too.

Exit status 0 when clean, 1 with a per-symbol report otherwise.
Run from the repository root::

    PYTHONPATH=src python scripts/check_docstrings.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from typing import Iterator, List

# repro.core.kernels is inside repro.core, but is named explicitly so
# the kernel layer stays audited even if the package list is trimmed.
DEFAULT_PACKAGES = ("repro.core", "repro.core.kernels", "repro.engine",
                    "repro.harness", "repro.observability", "repro.serve",
                    "repro.verify")

#: Accepted section spellings for parameter documentation.
ARGS_SECTIONS = ("Args:", "Arguments:", "Attributes:")
#: Accepted section spellings for return documentation.
RETURNS_SECTIONS = ("Returns:", "Yields:", "Returns the", "Return value")


def iter_modules(package_name: str) -> Iterator[object]:
    """Import and yield a package and all its submodules."""
    package = importlib.import_module(package_name)
    yield package
    path = getattr(package, "__path__", None)
    if path is None:
        return
    for info in pkgutil.walk_packages(path, prefix=package_name + "."):
        yield importlib.import_module(info.name)


def real_parameters(func: object) -> List[str]:
    """Parameter names that deserve documentation."""
    try:
        signature = inspect.signature(func)
    except (TypeError, ValueError):
        return []
    return [
        name
        for name, p in signature.parameters.items()
        if name not in ("self", "cls")
        and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    ]


def has_return_annotation(func: object) -> bool:
    """True when the signature declares a non-None return type."""
    try:
        signature = inspect.signature(func)
    except (TypeError, ValueError):
        return False
    annotation = signature.return_annotation
    return annotation not in (inspect.Signature.empty, None, "None")


def check_callable(qualname: str, func: object, problems: List[str]) -> None:
    """Apply the three rules to one public function or method."""
    doc = inspect.getdoc(func)
    if not doc:
        problems.append(f"{qualname}: missing docstring")
        return
    params = real_parameters(func)
    documents_args = any(section in doc for section in ARGS_SECTIONS)
    if len(params) >= 2 and not documents_args:
        problems.append(
            f"{qualname}: takes {len(params)} parameters "
            f"({', '.join(params)}) but has no Args: section"
        )
    if documents_args and has_return_annotation(func):
        if not any(section in doc for section in RETURNS_SECTIONS):
            problems.append(
                f"{qualname}: has Args: and a return annotation "
                "but no Returns: section"
            )


def check_module(module: object, problems: List[str]) -> None:
    """Audit one module's public surface."""
    if not inspect.getdoc(module):
        problems.append(f"{module.__name__}: missing module docstring")
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; audited where defined
        qualname = f"{module.__name__}.{name}"
        if inspect.isclass(obj):
            if not inspect.getdoc(obj):
                problems.append(f"{qualname}: missing class docstring")
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, property):
                    if not inspect.getdoc(member.fget):
                        problems.append(f"{qualname}.{attr}: property missing docstring")
                elif inspect.isfunction(member):
                    check_callable(f"{qualname}.{attr}", member, problems)
                elif isinstance(member, (classmethod, staticmethod)):
                    check_callable(f"{qualname}.{attr}", member.__func__, problems)
        elif inspect.isfunction(obj):
            check_callable(qualname, obj, problems)


def main(argv: List[str]) -> int:
    """Entry point; returns the process exit code."""
    packages = argv or list(DEFAULT_PACKAGES)
    problems: List[str] = []
    n_modules = 0
    for package in packages:
        for module in iter_modules(package):
            n_modules += 1
            check_module(module, problems)
    if problems:
        print(f"docstring audit FAILED ({len(problems)} problem(s)):")
        for problem in sorted(problems):
            print(f"  {problem}")
        return 1
    print(f"docstring audit ok: {n_modules} modules in {', '.join(packages)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

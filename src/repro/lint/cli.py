"""Command-line driver for ``repro lint``.

Kept separate from :mod:`repro.cli` so the static analyzer stays
importable without numpy (the main CLI imports the engines at module
load; CI lint jobs shouldn't need a working numerical stack to check
source hygiene).  :func:`run_lint` is the single entry point: it
returns the process exit code — 0 on clean, 1 on any blocking finding,
2 on operational errors (unparseable files, a malformed or reasonless
suppression) — so it composes with CI and pre-commit.  Both rule
layers always run; there is no baseline, cache or second report format.
"""

from __future__ import annotations

import os
import sys

from repro.errors import LintError
from repro.lint.engine import Linter, rule_catalog

__all__ = ["run_lint", "add_lint_arguments"]


def add_lint_arguments(parser) -> None:
    """Attach the ``repro lint`` argument set to *parser*."""
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail on warnings and stale suppressions too, not just errors",
    )
    parser.add_argument(
        "--exclude", action="append", default=[], metavar="PATH",
        help="skip this file or directory (repeatable; used to carve "
        "the deliberately-bad lint fixtures out of a tests/ scan)",
    )
    parser.add_argument(
        "--rules", action="store_true",
        help="print the rule catalog and exit",
    )


def run_lint(args, stdout=None) -> int:
    """Execute a lint run described by parsed *args*; returns exit code."""
    out = stdout if stdout is not None else sys.stdout
    if args.rules:
        for rule_id, severity, description in rule_catalog():
            print(f"{rule_id} [{severity}] {description}", file=out)
        return 0
    try:
        linter = Linter(root=os.getcwd(), exclude=tuple(args.exclude))
        report = linter.lint_paths(list(args.paths))
    except LintError as exc:
        print(f"lint error: {exc}", file=out)
        return 2
    print(report.format(), file=out)
    code = report.exit_code(strict=args.strict)
    if code:
        blocking = report.blocking(strict=args.strict)
        print(
            f"FAILED: {len(blocking)} blocking finding(s)"
            + (" (strict)" if args.strict else ""),
            file=out,
        )
    return code

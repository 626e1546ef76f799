"""Command-line entry point: ``python -m repro.lint [paths]``.

Exit codes: 0 — clean (warnings allowed unless ``--strict``);
1 — findings failed the run; 2 — usage error (unknown rule id, ...).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .diagnostics import Severity
from .rules import ALL_RULES
from .runner import lint_paths


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI surface."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Repo-specific static analysis: determinism, iteration-order "
            "stability, observability gating, bounded waits, seed flow, "
            "worker safety, and the metrics contract."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help=(
            "output format (default: text); `github` emits GitHub "
            "Actions ::error/::warning annotations"
        ),
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="IDS",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help=(
            "treat warnings as failures (exit 1) and report "
            "suppression comments that matched nothing (E997)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _split_ids(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def main(argv: Sequence[str] | None = None) -> int:
    """Run the linter; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in ALL_RULES:
            marker = "!" if rule.severity is Severity.ERROR else "~"
            print(f"{rule.id} {marker} {rule.name}: {rule.summary}")
        return 0
    try:
        report = lint_paths(
            args.paths,
            select=_split_ids(args.select),
            ignore=_split_ids(args.ignore),
            strict=args.strict,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.render_json())
    elif args.format == "github":
        print(report.render_github())
    else:
        print(report.render_text())
    return report.exit_code(strict=args.strict)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

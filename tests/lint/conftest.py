"""Shared fixtures for the repro.lint test suite.

Lint rules are package-scoped (determinism runs only inside
``repro.core``/``repro.cache``/... and order/obs gating anchor on
specific modules), so fixtures are written as miniature source trees
under ``tmp_path/src/repro/...`` — the runner maps them to the same
dotted module names as the real package.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint import Report, lint_paths


def write_tree(root: Path, files: dict[str, str]) -> Path:
    """Write ``{relative_path: source}`` under ``root`` (dedented)."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def rule_ids(report: Report) -> list[str]:
    """The rule ids of the surviving findings, in report order."""
    return [d.rule.id for d in report.diagnostics]


@pytest.fixture
def lint_tree(tmp_path):
    """Write a fixture tree and lint its ``src/`` directory."""

    def run(files: dict[str, str], **kwargs) -> Report:
        write_tree(tmp_path, files)
        return lint_paths([tmp_path / "src"], **kwargs)

    return run

"""Meta-tests: the linter's verdict on this repository itself.

The acceptance contract for the lint subsystem is two-sided: the shipped
tree must lint clean, and the regressions the linter exists to catch —
re-importing stdlib ``random`` into the engine, a literal reseed deep in
a seeded chain, a worker writing a module global, an unregistered
metric family — must flip the exit code to non-zero.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import lint_paths

from .conftest import rule_ids

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


@pytest.fixture
def repo_copy(tmp_path):
    """A scratch copy of the real ``src/repro`` tree, safe to mutate."""
    target = tmp_path / "src" / "repro"
    shutil.copytree(SRC / "repro", target)
    return target


def test_shipped_tree_lints_clean():
    report = lint_paths([SRC])
    assert rule_ids(report) == []
    assert report.exit_code() == 0
    assert report.files_checked > 50
    # The justified orchestration suppressions (core/sweep.py) are
    # counted, proving the suppression path is exercised on real code.
    assert report.suppressed > 0


def test_shipped_tree_lints_clean_under_strict():
    # Strict adds suppression hygiene (E997): every inline suppression
    # in the shipped tree must still be earning its keep.
    report = lint_paths([SRC], strict=True)
    assert rule_ids(report) == []
    assert report.exit_code(strict=True) == 0


def test_module_entry_point_exits_clean_on_repo():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "src"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 error(s)" in proc.stdout


def test_reintroducing_stdlib_random_fails_the_lint(repo_copy):
    engine = repo_copy / "core" / "engine.py"
    engine.write_text(
        engine.read_text(encoding="utf-8").replace(
            "import numpy as np", "import numpy as np\nimport random", 1
        ),
        encoding="utf-8",
    )
    report = lint_paths([repo_copy])
    assert "D101" in rule_ids(report)
    assert report.exit_code() == 1


def test_literal_reseed_deep_in_seeded_chain_fails_the_lint(repo_copy):
    # A helper that quietly re-seeds from a literal while its caller
    # threads an rng: invisible per-file (no rng param in the helper),
    # caught only by the interprocedural seed-flow family.
    injected = repo_copy / "core" / "_meta_seed.py"
    injected.write_text(
        "import numpy as np\n"
        "\n"
        "\n"
        "def outer(data, rng):\n"
        "    return _inner(data)\n"
        "\n"
        "\n"
        "def _inner(data):\n"
        "    gen = np.random.default_rng(42)\n"
        "    return gen.random()\n",
        encoding="utf-8",
    )
    report = lint_paths([repo_copy])
    assert "S702" in rule_ids(report)
    assert report.exit_code() == 1


def test_worker_mutating_module_global_fails_the_lint(repo_copy):
    sweep = repo_copy / "core" / "sweep.py"
    source = sweep.read_text(encoding="utf-8")
    sweep.write_text(
        source
        + "\n\n"
        + "_META_SHARED = []\n"
        + "\n"
        + "\n"
        + "def _meta_unsafe_worker(item):\n"
        + "    _META_SHARED.append(item)\n"
        + "    return item\n"
        + "\n"
        + "\n"
        + "def _meta_dispatch(pool, items):\n"
        + "    return [pool.submit(_meta_unsafe_worker, i) for i in items]\n",
        encoding="utf-8",
    )
    report = lint_paths([repo_copy])
    ids = rule_ids(report)
    assert "W802" in ids
    assert any(
        "_META_SHARED" in d.message
        for d in report.diagnostics
        if d.rule.id == "W802"
    )
    assert report.exit_code() == 1


def test_unregistered_metric_family_fails_the_lint(repo_copy):
    injected = repo_copy / "core" / "_meta_metrics.py"
    injected.write_text(
        "def observe(registry):\n"
        '    registry.counter("repro_meta_phantom_total").inc()\n',
        encoding="utf-8",
    )
    report = lint_paths([repo_copy])
    assert "M901" in rule_ids(report)
    assert report.exit_code() == 1

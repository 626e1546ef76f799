"""Self-test of the repository benchmark at a tiny size (well under a minute).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--scale", "0.01", "--seconds", "0"]


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *TINY, *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def printed(stdout: str) -> dict[tuple[str, str], tuple[str, str]]:
    """``workload metric value unit ...`` lines, keyed by (workload, metric)."""
    lines = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 4 and fields[0] in WORKLOADS:
            lines[(fields[0], fields[1])] = (fields[2], fields[3])
    return lines


def result_line(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(scope="module")
def untraced():
    """Two untraced runs of every workload with the same seed."""
    return [bench("--seed", "7") for _ in range(2)]


def test_every_end_to_end_metric_is_printed_with_its_unit(untraced):
    proc = untraced[0]
    assert proc.returncode == 0, proc.stderr
    lines = printed(proc.stdout)
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            value, unit = lines[(workload, metric["name"])]
            assert unit == metric["unit"]
            assert float(value) > 0
        assert float(lines[(workload, "failed_frac")][0]) == 0.0
    result = result_line(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_digests_repeat_across_runs(untraced):
    first, second = (printed(proc.stdout) for proc in untraced)
    for workload in WORKLOADS:
        assert first[(workload, "digest")] == second[(workload, "digest")]


def test_single_workload_result_line():
    proc = bench("--workload", "replay-sp", "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    metrics = result_line(proc.stdout)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]


def test_traced_run_prints_every_layer_metric_and_writes_spans():
    for workload in WORKLOADS:
        (RESULTS / f"trace-{workload}.jsonl").unlink(missing_ok=True)
    proc = bench("--trace", "1")
    assert proc.returncode == 0, proc.stderr
    lines = printed(proc.stdout)
    for workload in WORKLOADS:
        for metric in SPEC["per_layer"]:
            assert lines[(workload, metric["name"])][1] == metric["unit"]
        records = [
            json.loads(line)
            for line in (RESULTS / f"trace-{workload}.jsonl").read_text().splitlines()
        ]
        ids = {r["id"] for r in records}
        for r in records:
            assert {"id", "parent", "name", "workload", "start", "end"} <= set(r)
            assert r["workload"] == workload and r["start"] <= r["end"]
            assert r["parent"] is None or r["parent"] in ids
        names = {r["name"] for r in records}
        assert {"pass.untraced", "pass.traced", "core.run", "ladder.fixed"} <= names
    assert "bench.residual_s" in proc.stdout and "tracing overhead" in proc.stdout


def test_wrong_result_raises_failed_frac_and_exit_code(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("perf_run", HERE / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # dataclasses look it up
    spec.loader.exec_module(run)
    from repro.core.metrics import SimulationResult

    honest = SimulationResult.from_counters.__func__

    def one_extra_hit(cls, *args, **kwargs):
        result = honest(cls, *args, **kwargs)
        return dataclasses.replace(result, cache_served=result.cache_served + 1)

    monkeypatch.setattr(SimulationResult, "from_counters", classmethod(one_extra_hit))
    code = run.main(["--child", "replay-sp", *TINY])
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert payload["failed"] == payload["attempted"] > 0


def test_refuses_to_run_without_the_simulator(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        ["python3", "benchmarks/perf/run.py", "--workload", "replay-sp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout

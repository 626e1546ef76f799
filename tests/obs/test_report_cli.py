"""The ``python -m repro.obs`` CLI: smoke runs and report rendering."""

from __future__ import annotations

import json

import pytest

from repro.core.sweep import run_sweep
from repro.obs import MetricsRegistry, ProgressReporter, read_request_trace
from repro.obs.report import build_parser, main, render_snapshot, run_smoke


@pytest.fixture(scope="module")
def smoke_dir(tmp_path_factory):
    """One shared small smoke run (it simulates six architectures)."""
    out = tmp_path_factory.mktemp("obs-smoke")
    run_smoke(out, num_requests=1500, num_objects=80, engine="fast")
    return out


class TestSmoke:
    def test_writes_all_three_artifacts(self, smoke_dir):
        for name in ("registry.json", "metrics.prom", "trace.jsonl"):
            assert (smoke_dir / name).is_file(), name

    def test_trace_validates_and_covers_all_runs(self, smoke_dir):
        headers, requests = read_request_trace(smoke_dir / "trace.jsonl")
        # no-cache baseline + each baseline architecture, one header each
        assert headers >= 2
        assert requests > 0

    def test_registry_snapshot_parses(self, smoke_dir):
        snapshot = json.loads((smoke_dir / "registry.json").read_text())
        names = {m["name"] for m in snapshot["metrics"]}
        assert "repro_requests_total" in names

    def test_cli_smoke_and_report(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "smoke", "--out", str(out), "--requests", "800",
                "--objects", "50", "--engine", "fast",
            ]
        )
        assert code == 0
        assert "smoke run ok" in capsys.readouterr().out
        code = main(["report", str(out)])
        assert code == 0
        rendered = capsys.readouterr().out
        assert "repro_requests_total" in rendered
        assert "trace:" in rendered


class TestCheckExports:
    def test_clean_exports_pass(self, smoke_dir):
        from .check_exports import check_exports

        assert check_exports(smoke_dir) == []

    def test_missing_artifact_reported(self, tmp_path):
        from .check_exports import check_exports

        findings = check_exports(tmp_path)
        assert any("missing artifact" in f for f in findings)

    def test_corrupt_trace_reported(self, smoke_dir, tmp_path):
        from .check_exports import check_exports

        broken = tmp_path / "broken"
        broken.mkdir()
        for name in ("registry.json", "metrics.prom"):
            (broken / name).write_text(
                (smoke_dir / name).read_text(), encoding="utf-8"
            )
        (broken / "trace.jsonl").write_text("not json\n", encoding="utf-8")
        findings = check_exports(broken)
        assert any("trace.jsonl" in f for f in findings)

    def test_edited_prometheus_value_reported(self, smoke_dir, tmp_path):
        from .check_exports import check_exports

        broken = tmp_path / "edited"
        broken.mkdir()
        for name in ("registry.json", "trace.jsonl"):
            (broken / name).write_text(
                (smoke_dir / name).read_text(), encoding="utf-8"
            )
        lines = (smoke_dir / "metrics.prom").read_text().splitlines(True)
        index = next(
            i for i, line in enumerate(lines)
            if line.startswith("repro_requests_total{")
        )
        lines[index] = lines[index].rstrip("\n") + "1\n"
        (broken / "metrics.prom").write_text("".join(lines), encoding="utf-8")
        findings = check_exports(broken)
        assert len(findings) == 1
        assert findings[0].startswith(f"metrics.prom: line {index + 1}: ")


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """One shared small sweep-smoke run through the CLI."""
    out = tmp_path_factory.mktemp("obs-sweep")
    code = main(
        [
            "sweep-smoke", "--out", str(out), "--points", "3",
            "--requests", "1200", "--objects", "60", "--workers", "2",
        ]
    )
    assert code == 0
    return out


class TestSweepSmoke:
    def test_writes_all_four_artifacts(self, sweep_dir):
        for name in (
            "registry.json", "registry.deterministic.json",
            "spans.jsonl", "heartbeat.json",
        ):
            assert (sweep_dir / name).is_file(), name

    def test_clean_sweep_exports_pass(self, sweep_dir):
        from .check_exports import check_sweep_exports

        assert check_sweep_exports(sweep_dir) == []

    def test_unfinished_heartbeat_reported(self, sweep_dir, tmp_path):
        from .check_exports import check_sweep_exports

        broken = tmp_path / "broken"
        broken.mkdir()
        for name in (
            "registry.json", "registry.deterministic.json", "spans.jsonl"
        ):
            (broken / name).write_text(
                (sweep_dir / name).read_text(), encoding="utf-8"
            )
        heartbeat = json.loads((sweep_dir / "heartbeat.json").read_text())
        heartbeat["done"] -= 1
        (broken / "heartbeat.json").write_text(
            json.dumps(heartbeat), encoding="utf-8"
        )
        findings = check_sweep_exports(broken)
        assert any("accounts for 2/3" in f for f in findings)

    def test_wallclock_leak_reported(self, sweep_dir, tmp_path):
        from .check_exports import check_sweep_exports

        broken = tmp_path / "leak"
        broken.mkdir()
        for name in ("registry.json", "spans.jsonl", "heartbeat.json"):
            (broken / name).write_text(
                (sweep_dir / name).read_text(), encoding="utf-8"
            )
        # "Deterministic" twin that still carries wall-clock families.
        (broken / "registry.deterministic.json").write_text(
            (sweep_dir / "registry.json").read_text(), encoding="utf-8"
        )
        findings = check_sweep_exports(broken)
        assert any("wall-clock families leaked" in f for f in findings)

    def test_watch_renders_final_heartbeat(self, sweep_dir, capsys):
        assert main(["watch", str(sweep_dir / "heartbeat.json")]) == 0
        rendered = capsys.readouterr().out
        assert "3/3 points" in rendered

    def test_watch_missing_file_fails(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path / "absent.json")]) == 1
        assert "no heartbeat" in capsys.readouterr().err

    def test_watch_follow_exits_after_an_empty_sweep(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_repaint(seconds):
            raise AssertionError("watch --follow kept repainting")

        monkeypatch.setattr("repro.obs.report.time.sleep", no_repaint)
        path = tmp_path / "heartbeat.json"
        run_sweep([], progress=ProgressReporter(path))
        assert main(["watch", str(path), "--follow"]) == 0
        assert "0/0 points" in capsys.readouterr().out


class TestBenchDiffCli:
    def _write(self, path, **numbers):
        report = {"schema": "bench_core/v1", "scale": 0.2}
        report.update(numbers)
        path.write_text(json.dumps(report), encoding="utf-8")
        return path

    def test_ok_and_regressed_exits(self, tmp_path, capsys):
        base = self._write(
            tmp_path / "base.json", figure6={"fast_seconds": 2.0}
        )
        same = self._write(
            tmp_path / "same.json", figure6={"fast_seconds": 2.0}
        )
        worse = self._write(
            tmp_path / "worse.json", figure6={"fast_seconds": 3.0}
        )
        assert main(["bench-diff", str(base), str(same)]) == 0
        assert "bench-diff: OK" in capsys.readouterr().out
        assert (
            main(["bench-diff", str(base), str(worse), "--fail-over", "10"])
            == 1
        )
        assert "REGRESSED" in capsys.readouterr().out


class TestParserAndRender:
    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_render_empty_registry(self):
        snapshot = MetricsRegistry().snapshot()
        assert "empty registry" in render_snapshot(snapshot)

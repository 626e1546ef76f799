"""ProgressReporter: atomic heartbeats, cadence, ETA, and rendering."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    PROGRESS_SCHEMA,
    ProgressReporter,
    read_heartbeat,
    render_heartbeat,
)

#: The heartbeat the pinned-bytes test writes, byte for byte.
PINNED_HEARTBEAT = """\
{
  "counters": {
    "repro_requests_total": 9.0
  },
  "done": 3,
  "elapsed_seconds": 6.0,
  "eta_seconds": 9.0,
  "failed": 1,
  "in_flight": 2,
  "retried": 1,
  "schema": "repro.obs/progress/v1",
  "total": 10
}
"""


class _FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestWrites:
    def test_heartbeat_parses_and_validates(self, tmp_path):
        path = tmp_path / "heartbeat.json"
        reporter = ProgressReporter(path, total=4)
        reporter.start()
        reporter.update(done=2, failed=1, in_flight=1)
        payload = read_heartbeat(path)
        assert payload["schema"] == PROGRESS_SCHEMA
        assert (payload["done"], payload["failed"]) == (2, 1)

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "sub" / "heartbeat.json"
        reporter = ProgressReporter(path, total=2)
        reporter.start()
        reporter.update(done=2, force=True)
        assert [p.name for p in path.parent.iterdir()] == ["heartbeat.json"]

    def test_cadence_batches_writes(self, tmp_path):
        reporter = ProgressReporter(
            tmp_path / "hb.json", total=10, every=5
        )
        reporter.start()
        written = [reporter.update(done=n) for n in range(1, 11)]
        # Only the 5th and 10th completions hit the disk.
        assert written == [False] * 4 + [True] + [False] * 4 + [True]

    def test_duplicate_finished_count_not_rewritten(self, tmp_path):
        reporter = ProgressReporter(tmp_path / "hb.json", total=4)
        reporter.start()
        assert reporter.update(done=1)
        assert not reporter.update(done=1, in_flight=3)
        assert reporter.update(done=1, in_flight=3, force=True)

    def test_counters_sorted_in_payload(self, tmp_path):
        path = tmp_path / "hb.json"
        reporter = ProgressReporter(path, total=1)
        reporter.update(
            done=1, counters={"repro_b_total": 2.0, "repro_a_total": 1.0}
        )
        payload = read_heartbeat(path)
        assert list(payload["counters"]) == ["repro_a_total", "repro_b_total"]

    def test_bad_cadence_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="every"):
            ProgressReporter(tmp_path / "hb.json", every=0)

    def test_heartbeat_bytes_are_pinned(self, tmp_path):
        clock = _FakeClock()
        path = tmp_path / "hb.json"
        reporter = ProgressReporter(path, total=10, clock=clock)
        clock.now += 6.0
        reporter.update(
            done=3, failed=1, in_flight=2, retried=1,
            counters={"repro_requests_total": 9}, force=True,
        )
        assert path.read_text(encoding="utf-8") == PINNED_HEARTBEAT


class TestEta:
    def test_eta_is_rate_based(self, tmp_path):
        clock = _FakeClock()
        reporter = ProgressReporter(
            tmp_path / "hb.json", total=10, clock=clock
        )
        clock.now += 6.0
        reporter.update(done=3, force=True)
        payload = read_heartbeat(tmp_path / "hb.json")
        assert payload["elapsed_seconds"] == 6.0
        # 2 s/point, 7 points to go.
        assert payload["eta_seconds"] == 14.0

    def test_eta_null_when_not_computable(self, tmp_path):
        clock = _FakeClock()
        reporter = ProgressReporter(
            tmp_path / "hb.json", total=10, clock=clock
        )
        clock.now += 1.0
        reporter.update(done=0, force=True)
        assert read_heartbeat(tmp_path / "hb.json")["eta_seconds"] is None


def _edited(path, **changes):
    """Rewrite the heartbeat at ``path`` with some fields changed."""
    payload = json.loads(path.read_text())
    payload.update(changes)
    path.write_text(json.dumps(payload))
    return path


class TestValidation:
    def test_overcounted_heartbeat_rejected(self, tmp_path):
        path = tmp_path / "hb.json"
        reporter = ProgressReporter(path, total=2)
        reporter.update(done=2, force=True)
        with pytest.raises(ValueError, match="done \\+ failed exceeds"):
            read_heartbeat(_edited(path, done=5))

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "hb.json"
        ProgressReporter(path, total=1).finish()
        with pytest.raises(ValueError, match="unexpected fields \\['surprise'"):
            read_heartbeat(_edited(path, surprise=1))

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"schema": "repro.obs/progress/v0"}, "schema"),
            ({"failed": -1}, "failed must be a non-negative int"),
            ({"retried": 1.0}, "retried must be a non-negative int"),
            ({"total": True}, "total must be a non-negative int"),
        ],
    )
    def test_bad_tag_or_count_rejected(self, tmp_path, changes, message):
        path = tmp_path / "hb.json"
        ProgressReporter(path, total=1).finish()
        with pytest.raises(ValueError, match=message):
            read_heartbeat(_edited(path, **changes))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "hb.json"
        ProgressReporter(path, total=1).finish()
        payload = json.loads(path.read_text())
        del payload["in_flight"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="missing fields \\['in_flight'"):
            read_heartbeat(path)

    def test_render_smoke(self, tmp_path):
        path = tmp_path / "hb.json"
        reporter = ProgressReporter(path, total=4)
        reporter.update(
            done=3, failed=1, counters={"repro_requests_total": 9.0}
        )
        text = render_heartbeat(read_heartbeat(path))
        assert "4/4 points" in text
        assert "repro_requests_total = 9.0" in text

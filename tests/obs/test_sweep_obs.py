"""Sweep-scale observability: merged shards, spans, heartbeats, parity.

The acceptance contracts:

* a parallel sweep's merged registry (wall-clock families stripped) and
  merged span file are byte-identical across two same-seed runs *and*
  identical to a serial run with the same chunk size;
* attaching observer/progress/spans changes no simulated number — and
  ``None`` sinks (the default) stay bit-identical to pre-observability
  behaviour;
* the orchestration counters and the final heartbeat tell the truth
  about completions, failures, retries, and cancellations.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core import (
    ICN_SP,
    ExperimentConfig,
    SweepPoint,
    run_sweep,
    seeded_configs,
)
from repro.core.sweep import (
    WALLCLOCK_METRICS,
    _run_point,
    deterministic_snapshot,
)
from repro.idicn.retry import RetryPolicy
from repro.obs import (
    Observer,
    ProgressReporter,
    SpanTracker,
    read_heartbeat,
    validate_span_file,
    validate_span_record,
)

SMALL = ExperimentConfig(
    num_requests=2_000, num_objects=100, tree_depth=2, seed=7
)


def _points(n: int = 4) -> list[SweepPoint]:
    configs = seeded_configs(
        2013, [SMALL.with_(alpha=0.7 + 0.1 * i) for i in range(n)]
    )
    return [
        SweepPoint(key=f"alpha-{i}", config=config, architectures=(ICN_SP,))
        for i, config in enumerate(configs)
    ]


def _observed_run(
    tmp_path, tag: str, workers: int, chunk_size: int = 2, **sweep_kwargs
):
    observer = Observer()
    tracker = SpanTracker(2013)
    progress = ProgressReporter(tmp_path / f"heartbeat-{tag}.json")
    outcome = run_sweep(
        _points(),
        workers=workers,
        chunk_size=chunk_size,
        observer=observer,
        progress=progress,
        spans=tracker,
        **sweep_kwargs,
    )
    return outcome, observer, tracker, progress


def _canonical(snapshot) -> str:
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))


def _result_fingerprint(outcome):
    return {
        key: (
            result.baseline.total_latency,
            result.results["ICN-SP"].total_latency,
            result.results["ICN-SP"].total_origin_load,
        )
        for key, result in outcome.results.items()
    }


def _odd_points_failing_runner(point, engine, observer=None):
    # Module-level so it pickles into worker processes.
    if point.key in ("alpha-1", "alpha-3"):
        raise RuntimeError(f"injected fault at {point.key}")
    return _run_point(point, engine, observer=observer)


class TestDeterminism:
    @pytest.mark.parametrize(
        "sweep_kwargs",
        [
            {},
            {
                "runner": _odd_points_failing_runner,
                "retry_policy": RetryPolicy(
                    max_attempts=2, base_delay=0.0, jitter=0.0
                ),
            },
        ],
        ids=["clean", "retries"],
    )
    def test_parallel_artifacts_byte_identical_across_runs_and_serial(
        self, tmp_path, sweep_kwargs
    ):
        first = _observed_run(tmp_path, "a", workers=2, **sweep_kwargs)
        second = _observed_run(tmp_path, "b", workers=2, **sweep_kwargs)
        serial = _observed_run(tmp_path, "s", workers=0, **sweep_kwargs)
        outcomes = [run[0] for run in (first, second, serial)]
        assert (
            outcomes[0].attempts
            == outcomes[1].attempts
            == outcomes[2].attempts
        )
        assert (
            outcomes[0].failures
            == outcomes[1].failures
            == outcomes[2].failures
        )
        snapshots = [
            _canonical(deterministic_snapshot(run[1].registry))
            for run in (first, second, serial)
        ]
        assert snapshots[0] == snapshots[1] == snapshots[2]
        span_files = [run[2].to_jsonl() for run in (first, second, serial)]
        assert span_files[0] == span_files[1] == span_files[2]

    def test_wallclock_families_present_but_stripped(self, tmp_path):
        _, observer, _, _ = _observed_run(tmp_path, "w", workers=2)
        full = {f["name"] for f in observer.registry.snapshot()["metrics"]}
        stripped = {
            f["name"]
            for f in deterministic_snapshot(observer.registry)["metrics"]
        }
        assert "repro_sweep_chunk_seconds" in full
        assert not (stripped & WALLCLOCK_METRICS)
        assert "repro_requests_total" in stripped

    def test_span_tree_shape(self, tmp_path):
        _, _, tracker, _ = _observed_run(tmp_path, "t", workers=2)
        path = tmp_path / "spans.jsonl"
        tracker.write(path)
        stats = validate_span_file(path)
        # 1 sweep + 2 chunks (4 points / chunk_size 2) + 4 points.
        assert stats.spans == 7
        assert stats.roots == 1
        kinds = [
            json.loads(line)["kind"]
            for line in path.read_text().splitlines()
        ]
        assert kinds.count("chunk") == 2
        assert kinds.count("point") == 4

    def test_point_spans_carry_key_seed_status_requests(self, tmp_path):
        _, _, tracker, _ = _observed_run(tmp_path, "p", workers=2)
        points = [
            r for r in tracker.records() if r["kind"] == "point"
        ]
        configs = {p.key: p.config for p in _points()}
        for record in points:
            validate_span_record(record)
            attrs = record["attrs"]
            assert attrs["status"] == "ok"
            assert attrs["seed"] == configs[attrs["key"]].seed
            # baseline + ICN-SP, 1600 measured (post-warmup)
            # requests each.
            assert attrs["requests"] == 3_200


class TestParity:
    def test_sinks_change_no_simulated_number(self, tmp_path):
        bare = run_sweep(_points(), workers=2, chunk_size=2)
        observed, _, _, _ = _observed_run(tmp_path, "par", workers=2)
        assert _result_fingerprint(bare) == _result_fingerprint(observed)

    def test_serial_sinks_change_no_simulated_number(self, tmp_path):
        bare = run_sweep(_points(), workers=0, chunk_size=2)
        observed, _, _, _ = _observed_run(tmp_path, "ser", workers=0)
        assert _result_fingerprint(bare) == _result_fingerprint(observed)


class TestAccounting:
    def test_orchestration_counters_clean_run(self, tmp_path):
        _, observer, _, _ = _observed_run(tmp_path, "c", workers=2)
        totals = observer.registry.totals()
        assert totals["repro_sweep_points_total"] == 4.0
        assert totals["repro_sweep_points_completed"] == 4.0
        assert totals["repro_sweep_points_failed"] == 0.0
        assert totals["repro_sweep_points_cancelled"] == 0.0
        assert totals["repro_sweep_points_retried"] == 0.0
        assert totals["repro_sweep_attempts_total"] == 4.0
        # Simulation counters merged from the worker shards: 4 points
        # x (baseline + ICN-SP) x 1600 measured requests.
        assert totals["repro_requests_total"] == 12_800.0

    def test_final_heartbeat_truthful(self, tmp_path):
        _, _, _, progress = _observed_run(tmp_path, "h", workers=2)
        payload = read_heartbeat(progress.path)
        assert payload["total"] == 4
        assert payload["done"] == 4
        assert payload["failed"] == 0
        assert payload["in_flight"] == 0
        assert (
            payload["counters"]["repro_sweep_points_completed"] == 4.0
        )

    def test_failures_and_retries_counted(self, tmp_path):
        observer = Observer()
        progress = ProgressReporter(tmp_path / "heartbeat-f.json")
        outcome = run_sweep(
            _points(3),
            workers=0,
            runner=_always_failing_runner,
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay=0.0, jitter=0.0
            ),
            observer=observer,
            progress=progress,
        )
        assert len(outcome.failures) == 3
        totals = observer.registry.totals()
        assert totals["repro_sweep_points_failed"] == 3.0
        assert totals["repro_sweep_points_completed"] == 0.0
        assert totals["repro_sweep_points_retried"] == 3.0
        assert totals["repro_sweep_attempts_total"] == 6.0
        payload = read_heartbeat(progress.path)
        assert payload["failed"] == 3
        assert payload["retried"] == 3

    def test_cancelled_points_counted(self, tmp_path):
        observer = Observer()
        outcome = run_sweep(
            _points(3), workers=0, timeout=0.0, observer=observer
        )
        assert len(outcome.cancelled) == 3
        totals = observer.registry.totals()
        assert totals["repro_sweep_points_cancelled"] == 3.0
        assert totals["repro_sweep_points_failed"] == 3.0
        assert totals["repro_sweep_attempts_total"] == 0.0

    @pytest.mark.parametrize("workers", [0, 2])
    def test_retry_chunks_get_distinct_span_paths(self, tmp_path, workers):
        tracker = SpanTracker(2013)
        outcome = run_sweep(
            _points(3),
            workers=workers,
            chunk_size=3,
            runner=_always_failing_runner,
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay=0.0, jitter=0.0
            ),
            spans=tracker,
        )
        assert len(outcome.failures) == 3
        chunk_names = sorted(
            r["name"] for r in tracker.records() if r["kind"] == "chunk"
        )
        assert chunk_names[0] == "chunk-0000"
        assert [n for n in chunk_names if n.startswith("retry-")] == [
            "retry-alpha-0-2",
            "retry-alpha-1-2",
            "retry-alpha-2-2",
        ]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_colliding_key_escapes_get_distinct_point_spans(self, workers):
        # `x/y` shares a span name with `x_y` if `/` becomes `_`, and
        # with `x%2Fy` if `/` is percent-escaped but `%` is not.
        points = [
            dataclasses.replace(point, key=key)
            for point, key in zip(_points(3), ("x/y", "x_y", "x%2Fy"))
        ]
        tracker = SpanTracker(2013)
        traced = run_sweep(
            points, workers=workers, chunk_size=3, spans=tracker
        )
        bare = run_sweep(points, workers=workers, chunk_size=3)
        assert not traced.failures and not bare.failures
        assert _result_fingerprint(traced) == _result_fingerprint(bare)
        paths = [
            r["path"] for r in tracker.records() if r["kind"] == "point"
        ]
        assert len(paths) == len(set(paths)) == 3


def _always_failing_runner(point, engine, observer=None):
    raise RuntimeError(f"injected fault at {point.key}")

"""The parallel sweep runner: determinism, retries, and seed hygiene.

The contracts under test:

* worker count is invisible — serial and parallel execution of the same
  grid produce field-for-field identical results;
* failures are never silent — a raising point is retried per the
  :class:`RetryPolicy` and, if it keeps failing, lands in
  ``failures`` with its error history (results ∪ failures always
  covers every submitted key);
* per-point seeds derived from one base seed never collide, and the
  derivation is itself deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    EDGE,
    ICN_SP,
    ExperimentConfig,
    SweepPoint,
    improvements,
    merge_sharded_results,
    run_experiment,
    run_streamed_experiment,
    run_sweep,
    seeded_configs,
    shard_points,
    spawn_seeds,
)
from repro.idicn.retry import RetryPolicy
from repro.obs.progress import ProgressReporter

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


def _fingerprint(outcome):
    return {
        key: (
            result.baseline.total_latency,
            result.results["ICN-SP"].total_latency,
            result.results["ICN-SP"].max_link_transfers,
            result.results["ICN-SP"].total_origin_load,
        )
        for key, result in outcome.results.items()
    }


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("chunk_size", [1, 2, None])
def test_parallel_equals_serial(workers, chunk_size):
    points = _points()
    serial = run_sweep(points, workers=0)
    parallel = run_sweep(points, workers=workers, chunk_size=chunk_size)
    assert not serial.failures and not parallel.failures
    assert _fingerprint(serial) == _fingerprint(parallel)


def _flaky_runner(point, engine, fail_keys=frozenset(), always=False):
    # Module-level so it pickles into worker processes.
    if point.key in fail_keys and (
        always or _flaky_runner.seen.setdefault(point.key, 0) < 1
    ):
        _flaky_runner.seen[point.key] = (
            _flaky_runner.seen.get(point.key, 0) + 1
        )
        raise RuntimeError(f"injected fault at {point.key}")
    from repro.core.sweep import _run_point

    return _run_point(point, engine)


_flaky_runner.seen = {}


def _always_failing_runner(point, engine, observer=None):
    raise RuntimeError(f"injected fault at {point.key}")


def _fail_once_runner(point, engine, observer=None):
    return _flaky_runner(point, engine, fail_keys={"alpha-1"})


def test_transient_failure_is_retried_serial():
    """A point that fails once succeeds on retry (attempts recorded)."""
    _flaky_runner.seen.clear()
    points = _points(3)
    outcome = run_sweep(
        points,
        workers=0,
        runner=_fail_once_runner,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
    )
    assert not outcome.failures
    assert set(outcome.results) == {p.key for p in points}
    assert outcome.attempts["alpha-1"] == 2
    assert outcome.attempts["alpha-0"] == 1


def test_permanent_failure_is_reported_never_dropped():
    """A point that always fails shows up in failures with its history."""
    points = _points(3)
    policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
    for workers in (0, 2):
        outcome = run_sweep(
            points,
            workers=workers,
            runner=_always_failing_runner,
            retry_policy=policy,
        )
        assert set(outcome.failures) == {p.key for p in points}
        assert not outcome.results
        for errors in outcome.failures.values():
            assert len(errors) == policy.max_attempts
            assert "injected fault" in errors[-1]
        with pytest.raises(RuntimeError, match="injected fault"):
            outcome.raise_on_failure()


def test_results_and_failures_cover_all_keys():
    """One bad point never takes down its chunk-mates."""
    points = _points(5)

    outcome = run_sweep(
        points,
        workers=2,
        chunk_size=2,
        runner=_bad_middle_runner,
        retry_policy=None,
    )
    assert set(outcome.results) | set(outcome.failures) == {
        p.key for p in points
    }
    assert set(outcome.failures) == {"alpha-2"}


def _bad_middle_runner(point, engine, observer=None):
    if point.key == "alpha-2":
        raise ValueError("poisoned point")
    from repro.core.sweep import _run_point

    return _run_point(point, engine)


def test_duplicate_keys_rejected():
    point = _points(1)[0]
    with pytest.raises(ValueError, match="unique"):
        run_sweep([point, point], workers=0)


def test_empty_sweep():
    outcome = run_sweep([], workers=4)
    assert not outcome.results and not outcome.failures


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("chunk_size", [0, -1])
def test_bad_chunk_size_rejected_before_any_work(
    tmp_path, workers, chunk_size
):
    progress = ProgressReporter(tmp_path / "heartbeat.json")
    with pytest.raises(ValueError, match="chunk_size"):
        run_sweep(
            _points(3),
            workers=workers,
            chunk_size=chunk_size,
            progress=progress,
        )
    # Rejected before the heartbeat's first write.
    assert not progress.path.exists()


def test_spawn_seeds_are_distinct_and_deterministic():
    seeds = spawn_seeds(2013, 64)
    assert len(set(seeds)) == 64
    assert seeds == spawn_seeds(2013, 64)
    assert seeds[:16] == spawn_seeds(2013, 16)
    assert spawn_seeds(2014, 64) != seeds


def test_seeded_configs_gives_every_point_its_own_stream():
    configs = seeded_configs(2013, [SMALL] * 8)
    seeds = [config.seed for config in configs]
    assert len(set(seeds)) == 8
    # Same base seed -> same derived seeds (reproducible grids).
    again = seeded_configs(2013, [SMALL] * 8)
    assert [config.seed for config in again] == seeds


STREAMED = SMALL.with_(warmup_fraction=0.0, seed=11)


def _whole_point() -> SweepPoint:
    return SweepPoint(key="big", config=STREAMED, architectures=(ICN_SP,))


def test_shard_points_split_and_keys():
    shards = shard_points(_whole_point(), 3)
    assert [s.key for s in shards] == [
        f"big/shard-{i}-of-3" for i in range(3)
    ]
    assert [s.shard for s in shards] == [(0, 3), (1, 3), (2, 3)]
    with pytest.raises(ValueError, match="num_shards"):
        shard_points(_whole_point(), 0)


def test_shard_and_objects_are_mutually_exclusive():
    trace_point = SweepPoint(
        key="trace",
        config=STREAMED,
        architectures=(ICN_SP,),
        objects=np.zeros(4, dtype=np.int64),
    )
    with pytest.raises(ValueError, match="trace objects"):
        shard_points(trace_point, 2)
    both = SweepPoint(
        key="both",
        config=STREAMED,
        architectures=(ICN_SP,),
        objects=np.zeros(4, dtype=np.int64),
        shard=(0, 2),
    )
    outcome = run_sweep([both], workers=0, retry_policy=None)
    assert "shard and objects" in outcome.failures["both"][-1]


def test_sharded_parallel_equals_serial():
    """PoP shards behave like any other grid points across workers."""
    shards = shard_points(_whole_point(), 3)
    serial = run_sweep(shards, workers=0)
    parallel = run_sweep(shards, workers=2)
    assert not serial.failures and not parallel.failures
    assert _fingerprint(serial) == _fingerprint(parallel)


def test_merged_shards_match_unsharded_run(results_identical):
    """At warmup=0 the shards partition the stream: the baseline merge
    is *exact* (no state couples the shards), while cached results are
    additive approximations — each shard warms its own caches, so
    cross-shard backbone hits are not reproduced."""
    point = _whole_point()
    shards = shard_points(point, 3)
    outcome = run_sweep(shards, workers=2)
    assert not outcome.failures
    merged = merge_sharded_results(
        point, [outcome.results[s.key] for s in shards]
    )
    whole = run_experiment(point.config, point.architectures, engine="fast")
    results_identical(merged.baseline, whole.baseline)
    sharded_sp = merged.results["ICN-SP"]
    whole_sp = whole.results["ICN-SP"]
    assert sharded_sp.num_requests == whole_sp.num_requests
    # Seed-pinned sanity band, not a tolerance contract: losing the
    # cross-shard cache hits can only cost a few percent of latency.
    assert whole_sp.total_latency <= sharded_sp.total_latency
    assert sharded_sp.total_latency <= 1.05 * whole_sp.total_latency
    # Improvements are recomputed against the merged (exact) baseline.
    assert merged.improvements["ICN-SP"] == improvements(
        sharded_sp, merged.baseline
    )
    with pytest.raises(ValueError, match="zero shard"):
        merge_sharded_results(point, [])


def test_merge_rejects_a_shard_missing_an_architecture():
    """A shard that ran a different line-up fails the merge in either order."""
    config = ExperimentConfig(
        topology="abilene", tree_depth=3, num_requests=4_000,
        num_objects=300, warmup_fraction=0.0, seed=7,
    )
    point = SweepPoint(key="mixed", config=config, architectures=(EDGE, ICN_SP))
    both = run_streamed_experiment(config, point.architectures, shard=(0, 2))
    edge_only = run_streamed_experiment(config, (EDGE,), shard=(1, 2))
    for shards, position in (([both, edge_only], 1), ([edge_only, both], 0)):
        with pytest.raises(
            ValueError, match=rf"shard result {position} .*missing \['ICN-SP'\]"
        ):
            merge_sharded_results(point, shards)


def test_sharded_sweep_heartbeats_per_shard(tmp_path):
    """Each finishing shard lands a progress heartbeat, not just the sweep."""
    shards = shard_points(_whole_point(), 3)
    progress = ProgressReporter(tmp_path / "heartbeat.json", every=1)
    outcome = run_sweep(shards, workers=0, progress=progress)
    assert not outcome.failures
    assert progress.total == 3
    assert progress.done == 3
    assert progress.writes >= 4  # start() plus one write per shard


def test_timeout_returns_partial_results():
    """A deadline of zero cancels every point before its first attempt."""
    points = _points(3)
    outcome = run_sweep(points, workers=0, timeout=0.0)
    assert set(outcome.results) | set(outcome.failures) == {
        p.key for p in points
    }
    # Nothing ever started, so every failure is a pre-start
    # cancellation (not a timeout) and recorded with zero attempts.
    assert set(outcome.cancelled) == {p.key for p in points}
    for key, errors in outcome.failures.items():
        assert any(err.startswith("cancelled:") for err in errors)
        assert outcome.attempts[key] == 0


def _slow_failing_runner(point, engine, observer=None):
    import time as _time

    _time.sleep(0.4)
    raise RuntimeError(f"slow fault at {point.key}")


def test_timeout_distinguishes_started_from_cancelled():
    """Started-and-overran points say timeout; never-started say cancelled.

    Serial path: the first point starts inside the deadline, burns it,
    and fails; its retry is then refused with a ``timeout:`` error
    (the point *ran* — one recorded attempt).  The remaining points
    never start and are refused with ``cancelled:`` at zero attempts.
    """
    points = _points(3)
    outcome = run_sweep(
        points,
        workers=0,
        chunk_size=3,
        timeout=0.2,
        runner=_slow_failing_runner,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
    )
    assert set(outcome.failures) == {p.key for p in points}
    first = outcome.failures["alpha-0"]
    assert "slow fault" in first[0]
    assert first[-1].startswith("timeout:")
    assert outcome.attempts["alpha-0"] == 1
    assert set(outcome.cancelled) == {"alpha-1", "alpha-2"}
    for key in outcome.cancelled:
        assert outcome.attempts[key] == 0
        assert outcome.failures[key][-1].startswith("cancelled:")


def _fast_fault_runner(point, engine, observer=None):
    import time as _time

    if point.key == "alpha-0":
        raise RuntimeError("fast fault")
    _time.sleep(1.5)
    from repro.core.sweep import _run_point

    return _run_point(point, engine, observer=observer)


def test_cancelled_retry_of_a_point_that_ran_is_a_timeout():
    """Pool path: the deadline cancels ``alpha-0``'s queued retry.

    ``alpha-0`` ran once and failed, so losing its retry to the
    deadline is a ``timeout:`` with one attempt, not a cancellation.
    Across every failed key, ``cancelled`` means exactly zero attempts.
    """
    outcome = run_sweep(
        _points(8),
        workers=2,
        chunk_size=1,
        timeout=0.75,
        runner=_fast_fault_runner,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
    )
    first = outcome.failures["alpha-0"]
    assert first[0] == "RuntimeError: fast fault"
    assert first[-1].startswith("timeout:")
    assert outcome.attempts["alpha-0"] == 1
    for key in outcome.failures:
        assert (key in outcome.cancelled) == (outcome.attempts[key] == 0)

"""Parallel design-space sweeps (Section 4's grid, at production scale).

The paper's evaluation is a grid — architectures x topologies x cache
budgets x Zipf parameters — and every point is an independent
:func:`~repro.core.experiment.run_experiment` call.  This module fans a
grid out over worker processes:

* each grid point is a :class:`SweepPoint` (a fully seeded
  :class:`ExperimentConfig` plus its architecture line-up and optional
  trace objects), so a point's result depends only on the point itself
  — chunked parallel execution is bit-identical to serial execution
  regardless of worker count;
* per-point seeds are derived with :func:`spawn_seeds` from one base
  seed via ``numpy.random.SeedSequence.spawn``, giving collision-free
  independent streams without hand-picked offsets;
* one submit/collect loop runs every sweep: a process pool takes every
  chunk at once, and a serial sweep hands its chunks one at a time to
  an in-process executor that returns finished futures;
* a point whose chunk reports an error is retried alone (with the
  :class:`~repro.idicn.retry.RetryPolicy` backoff shapes) and, if it
  keeps failing, *reported* in :attr:`SweepOutcome.failures` — never
  silently dropped; a deadline turns still-pending points into reported
  failures while keeping every finished result (partial collection),
  labelled ``cancelled:`` (:attr:`SweepOutcome.cancelled`) exactly when
  they never started an attempt and ``timeout:`` otherwise.

Observability (all three sinks default to ``None`` and cost nothing
when absent — lint rule ``O502`` pins the gating):

* ``observer`` — each chunk collects simulation counters into a local
  registry and ships its snapshot home with the chunk result; the parent
  merges shards on arrival (counters sum, so the merged registry is
  byte-identical across worker counts regardless of completion order)
  and adds the sweep orchestration tallies.  Wall-clock families
  (:data:`WALLCLOCK_METRICS`) are parent-only and excluded by
  :func:`deterministic_snapshot`.
* ``spans`` — a :class:`~repro.obs.spans.SpanTracker`; the sweep emits
  a ``sweep`` span with one ``chunk`` child per submitted chunk (retry
  chunks included) and one ``point`` child per executed point.  Span
  records carry only deterministic values, so for a fixed
  ``chunk_size`` the merged span file is byte-identical across runs and
  worker counts, retries included.
* ``progress`` — a :class:`~repro.obs.progress.ProgressReporter`
  heartbeat updated as chunks complete.

Workers default to the fast engine (:mod:`repro.core.fastpath`); with
``workers=0`` the sweep runs serially in-process, which is also the
fallback when only one point is requested.
"""

from __future__ import annotations

# The wall-clock reads in this module (time.monotonic/time.sleep)
# schedule the sweep itself — deadlines and retry-backoff pauses; no
# simulated result ever observes them.
# lint: disable-file=D105
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    ParamSpec,
    Sequence,
    TypeVar,
)

import numpy as np

from ..idicn.retry import RetryPolicy
from .architectures import Architecture, BASELINE_ARCHITECTURES
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    run_streamed_experiment,
)
from .metrics import Improvements, improvements, merge_results

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.progress import ProgressReporter
    from ..obs.registry import MetricsRegistry
    from ..obs.sink import Observer
    from ..obs.spans import Span, SpanTracker

__all__ = [
    "DEFAULT_RETRY_POLICY",
    "WALLCLOCK_METRICS",
    "SweepOutcome",
    "SweepPoint",
    "deterministic_snapshot",
    "merge_sharded_results",
    "run_sweep",
    "seeded_configs",
    "shard_points",
    "spawn_seeds",
]

#: One retry per failing point, no backoff pause by default (sweep points
#: are deterministic, so retries mostly paper over transient worker
#: failures such as an OOM-killed process).
DEFAULT_RETRY_POLICY = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)

#: Registry families that carry wall-clock measurements.  They live only
#: in the parent registry (never in chunk snapshots) and are the one
#: part of a sweep's merged registry that legitimately differs between
#: two runs — strip them with :func:`deterministic_snapshot` before any
#: byte-equality comparison.
WALLCLOCK_METRICS = frozenset(
    {
        "repro_phase_seconds",
        "repro_sweep_chunk_seconds",
        "repro_sweep_chunk_requests_per_second",
        "repro_sweep_backoff_seconds_total",
    }
)

#: Error strings for the two distinct deadline outcomes.
_TIMEOUT_ERROR = "timeout: sweep deadline exceeded"
_CANCELLED_ERROR = "cancelled: sweep deadline exceeded before the attempt started"

_P = ParamSpec("_P")
_T = TypeVar("_T")


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: a key, a config, and its architecture line-up."""

    key: str
    config: ExperimentConfig
    architectures: tuple[Architecture, ...] = BASELINE_ARCHITECTURES
    #: Optional trace-driven object sequence (see ``run_experiment``).
    objects: np.ndarray | None = None
    #: Optional ``(index, num_shards)`` PoP shard: the point executes
    #: :func:`~repro.core.experiment.run_streamed_experiment` on the
    #: sub-stream of requests arriving at PoPs with
    #: ``pop % num_shards == index``.  The worker regenerates the
    #: seed-derived stream locally, so no request arrays ride in the
    #: pickled point.  Mutually exclusive with ``objects``.
    shard: tuple[int, int] | None = None


@dataclass
class SweepOutcome:
    """Everything a sweep produced, successes and failures alike.

    ``results`` maps point keys to experiment results; ``failures`` maps
    the keys that never succeeded to their per-attempt error strings.
    Every submitted key appears in exactly one of the two mappings.
    ``attempts`` counts started executions per key (1 = first try
    succeeded, 0 = the point never started).
    """

    results: dict[str, ExperimentResult] = field(default_factory=dict)
    failures: dict[str, list[str]] = field(default_factory=dict)
    attempts: dict[str, int] = field(default_factory=dict)

    @property
    def cancelled(self) -> tuple[str, ...]:
        """Keys whose final failure was a pre-start cancellation.

        A deadline produces two different kinds of losers: points that
        started at least one attempt (``timeout:`` errors, whether the
        deadline caught that attempt or a later one) and points the
        sweep never got to (``cancelled:`` errors).  A key is listed
        here exactly when its ``attempts`` count is 0.  Forensics care —
        a cancelled point is innocent; a timed-out one may be the point
        that blew the budget.
        """
        return tuple(
            sorted(
                key
                for key, errors in self.failures.items()
                if errors and errors[-1].startswith("cancelled:")
            )
        )

    def raise_on_failure(self) -> None:
        """Raise if any point failed (for callers that need all points)."""
        if self.failures:
            summary = "; ".join(
                f"{key}: {errors[-1]}" for key, errors in self.failures.items()
            )
            raise RuntimeError(f"sweep points failed: {summary}")


def spawn_seeds(base_seed: int, count: int) -> tuple[int, ...]:
    """``count`` collision-free child seeds derived from one base seed.

    Uses ``SeedSequence.spawn`` so the streams are independent no matter
    how points are chunked across workers; the same base seed always
    yields the same children (reproducible reruns).
    """
    children = np.random.SeedSequence(base_seed).spawn(count)
    return tuple(
        int(child.generate_state(1, np.uint64)[0]) for child in children
    )


def seeded_configs(
    base_seed: int, configs: Iterable[ExperimentConfig]
) -> tuple[ExperimentConfig, ...]:
    """Re-seed a grid of configs with independent per-point seeds."""
    configs = tuple(configs)
    seeds = spawn_seeds(base_seed, len(configs))
    return tuple(
        config.with_(seed=seed) for config, seed in zip(configs, seeds)
    )


def deterministic_snapshot(
    registry: "MetricsRegistry",
) -> dict[str, object]:
    """A registry snapshot with the wall-clock families stripped.

    This is the artifact the determinism guarantees apply to: for the
    same points and seed it is byte-identical across runs, worker
    counts, and chunk completion orders.
    """
    snapshot = registry.snapshot()
    metrics = snapshot["metrics"]
    assert isinstance(metrics, list)
    snapshot["metrics"] = [
        family
        for family in metrics
        if family["name"] not in WALLCLOCK_METRICS
    ]
    return snapshot


def _run_point(
    point: SweepPoint, engine: str, observer: "Observer | None" = None
) -> ExperimentResult:
    """Execute one grid point (also the worker-side entry).

    A sharded point runs the streamed engine path on its PoP
    sub-stream; everything else takes the materialized path.
    """
    if point.shard is not None:
        if point.objects is not None:
            raise ValueError(
                "a sweep point cannot set both shard and objects"
            )
        return run_streamed_experiment(
            point.config,
            point.architectures,
            shard=point.shard,
            engine=engine,
            observer=observer,
        )
    return run_experiment(
        point.config,
        point.architectures,
        objects=point.objects,
        engine=engine,
        observer=observer,
    )


def shard_points(point: SweepPoint, num_shards: int) -> tuple[SweepPoint, ...]:
    """Split one streamed point into ``num_shards`` PoP-shard points.

    Each shard point replays only the requests arriving at its PoPs
    (``pop % num_shards == shard``), regenerated worker-side from the
    point's seed, so a single huge streamed trace spreads across
    :func:`run_sweep` workers — with per-shard progress heartbeats for
    free — without any request arrays crossing process boundaries.
    Recombine with :func:`merge_sharded_results`.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if point.objects is not None:
        raise ValueError("cannot shard a point with trace objects attached")
    return tuple(
        SweepPoint(
            key=f"{point.key}/shard-{index}-of-{num_shards}",
            config=point.config,
            architectures=point.architectures,
            shard=(index, num_shards),
        )
        for index in range(num_shards)
    )


def merge_sharded_results(
    point: SweepPoint, shard_results: Sequence[ExperimentResult]
) -> ExperimentResult:
    """Merge the per-shard results of one :func:`shard_points` split.

    Counters are additive over the PoP partition of the stream
    (:func:`~repro.core.metrics.merge_results`), and improvements are
    recomputed from the merged aggregates.  At ``warmup_fraction=0``
    the *no-cache baseline* merge is exact: the shards partition the
    request stream and no state couples them, so the merged baseline
    equals the unsharded run bit for bit.  Cached architectures are an
    approximation — each shard replays against its own cache state, so
    a backbone cache warmed by one shard's requests never serves
    another shard's — and with warmup each shard additionally warms up
    on its own prefix instead of the global one.

    Every shard must report exactly the point's architecture line-up, in
    order; a shard that lacks one or carries an extra is rejected rather
    than merged.
    """
    if not shard_results:
        raise ValueError("cannot merge zero shard results")
    arch_names = [arch.name for arch in point.architectures]
    for position, shard in enumerate(shard_results):
        names = list(shard.results)
        if names != arch_names:
            missing = [name for name in arch_names if name not in names]
            extra = [name for name in names if name not in arch_names]
            raise ValueError(
                f"shard result {position} does not match point "
                f"{point.key!r}: expected {arch_names}, got {names} "
                f"(missing {missing}, extra {extra})"
            )
    baseline = merge_results([shard.baseline for shard in shard_results])
    results = {
        name: merge_results([shard.results[name] for shard in shard_results])
        for name in arch_names
    }
    improved: dict[str, Improvements] = {
        name: improvements(result, baseline)
        for name, result in results.items()
    }
    return ExperimentResult(
        config=point.config,
        baseline=baseline,
        results=results,
        improvements=improved,
    )


def _result_requests(result: object) -> int:
    """Requests simulated by one point (baseline plus each architecture).

    Deterministic — derived from the workload size, never from timing.
    Returns 0 for custom runner payloads without the result shape.
    """
    baseline = getattr(result, "baseline", None)
    per_run = getattr(baseline, "num_requests", None)
    if per_run is None:
        return 0
    return int(per_run) * (1 + len(getattr(result, "results", ())))


def _span_name(key: str) -> str:
    """A point key as a span path segment.

    Paths reserve ``/``, so it is percent-escaped, and so is ``%``
    itself: the mapping stays injective, and distinct keys such as
    ``x/y`` and ``x_y`` never share a span path.
    """
    return key.replace("%", "%25").replace("/", "%2F")


def _record_point_span(
    tracker: "SpanTracker", point: SweepPoint, status: str, requests: int
) -> None:
    """Emit the closed ``point`` span for one executed sweep point.

    The record holds the key, per-point seed, final status, and the
    deterministic request count — never an elapsed time.
    """
    with tracker.span(
        f"point-{_span_name(point.key)}",
        "point",
        key=point.key,
        seed=point.config.seed,
        status=status,
        requests=requests,
    ):
        pass


def _run_chunk(
    points: Sequence[SweepPoint],
    engine: str,
    runner: Callable[..., ExperimentResult],
    deadline: float | None = None,
    collect_metrics: bool = False,
    span_seed: int = 0,
    span_path: str | None = None,
) -> tuple[
    list[tuple[str, bool, object]],
    dict[str, object] | None,
    list[dict[str, object]] | None,
    float,
    int,
]:
    """Run a chunk, reporting each started point's success or error.

    The one place a sweep point runs, in a pool worker or in-process.
    Exceptions are converted to strings here so one bad point never
    poisons its chunk-mates or the process pool.  ``deadline`` is the
    parent's absolute :func:`time.monotonic` deadline: the chunk stops
    at the first point it reaches at or after it and leaves that point
    and the rest out of the report, as not started.  A worker may
    compare the parent's reading with its own because Python makes
    ``time.monotonic`` system-wide (``CLOCK_MONOTONIC`` on Linux), and
    pool workers run on the parent's host.

    With ``collect_metrics`` the chunk runs under a chunk-local
    :class:`~repro.obs.sink.Observer` and ships the registry snapshot
    home (counters only, so the parent merge is order-independent);
    given the path of the chunk span the parent opened, it ships
    ``point`` span records rooted there.  The wall-clock ``elapsed``
    and deterministic ``requests`` tallies feed the parent-only
    throughput gauges.
    """
    observer: "Observer | None" = None
    tracker: "SpanTracker | None" = None
    if collect_metrics:
        from ..obs.sink import Observer

        observer = Observer()
    if span_path is not None:
        from ..obs.spans import SpanTracker

        tracker = SpanTracker(span_seed, prefix=span_path)
    out: list[tuple[str, bool, object]] = []
    requests = 0
    start = time.perf_counter()
    for point in points:
        if deadline is not None and time.monotonic() >= deadline:
            break
        try:
            result = runner(point, engine, observer=observer)
        except Exception as exc:  # noqa: BLE001 - reported, never dropped
            out.append((point.key, False, f"{type(exc).__name__}: {exc}"))
            if tracker is not None:
                _record_point_span(tracker, point, "error", 0)
            continue
        out.append((point.key, True, result))
        point_requests = _result_requests(result)
        requests += point_requests
        if tracker is not None:
            _record_point_span(tracker, point, "ok", point_requests)
    elapsed = time.perf_counter() - start
    snapshot = observer.registry.snapshot() if observer is not None else None
    records = tracker.records() if tracker is not None else None
    return out, snapshot, records, elapsed, requests


class _SerialExecutor(Executor):
    """The in-process executor a serial sweep submits its chunks to.

    ``submit`` runs the call before it returns and hands back the
    finished future, so :func:`run_sweep`'s submit/collect loop drives
    a serial sweep exactly as it drives a process pool.
    """

    def submit(
        self, fn: Callable[_P, _T], /, *args: _P.args, **kwargs: _P.kwargs
    ) -> Future[_T]:
        future: Future[_T] = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 - re-raised by result()
            future.set_exception(exc)
        return future


def _preregister_sweep_metrics(registry: "MetricsRegistry") -> None:
    """Create the sweep orchestration families up front.

    Pre-registration pins help text (merge is first-registration-wins)
    and guarantees the families exist — zero-valued — even for sweeps
    that finish without incident, so dashboards and diffs never chase
    missing series.
    """
    registry.counter(
        "repro_sweep_points_total", help="sweep points submitted"
    )
    registry.counter(
        "repro_sweep_points_completed",
        help="sweep points that finished ok",
    )
    registry.counter(
        "repro_sweep_points_failed",
        help="sweep points that exhausted retries or hit the deadline",
    )
    registry.counter(
        "repro_sweep_points_cancelled",
        help="points cancelled before their first attempt (subset of "
        "failed)",
    )
    registry.counter(
        "repro_sweep_points_retried",
        help="sweep points that needed more than one attempt",
    )
    registry.counter(
        "repro_sweep_attempts_total",
        help="point executions including retries",
    )
    registry.counter(
        "repro_sweep_backoff_seconds_total",
        help="retry backoff pause seconds (computed delays)",
    )


def run_sweep(
    points: Iterable[SweepPoint],
    workers: int | None = None,
    engine: str = "fast",
    chunk_size: int | None = None,
    retry_policy: RetryPolicy | None = DEFAULT_RETRY_POLICY,
    timeout: float | None = None,
    runner: Callable[..., ExperimentResult] = _run_point,
    observer: "Observer | None" = None,
    progress: "ProgressReporter | None" = None,
    spans: "SpanTracker | None" = None,
) -> SweepOutcome:
    """Run a grid of sweep points, in parallel when it pays.

    ``workers`` defaults to ``min(cpu_count, len(points))``; 0 or 1
    forces the serial in-process executor.  ``chunk_size`` (at least 1)
    groups points per chunk (default: spread points evenly, ~4 chunks
    per worker).  ``retry_policy`` shapes re-execution of failing
    points (``max_attempts`` tries with ``backoff_delay`` pauses), each
    retry running alone as a chunk queued behind the chunks already
    queued; ``None`` means a single attempt.  ``timeout`` is a
    wall-clock deadline in seconds for the whole sweep: finished points
    are kept, unfinished ones are reported as failures, ``cancelled:``
    if they never started an attempt and ``timeout:`` otherwise.
    ``runner`` is the per-point callable, called as
    ``runner(point, engine, observer=...)`` (overridable for tests;
    must be picklable for workers).

    ``observer`` makes the parent registry the merged source of truth
    for the whole sweep: simulation counters collected chunk-locally
    and merged on arrival, plus the orchestration tallies
    (``repro_sweep_points_*``, attempts, backoff) and the wall-clock
    per-chunk throughput gauges (see :data:`WALLCLOCK_METRICS`).
    ``progress`` receives a heartbeat update as each chunk finishes;
    ``spans`` receives the sweep/chunk/point span tree.  All three
    default to ``None`` and, absent, leave the sweep bit-identical to
    an unobserved one.
    """
    points = list(points)
    keys = [point.key for point in points]
    if len(set(keys)) != len(keys):
        raise ValueError("sweep point keys must be unique")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if workers is None:
        workers = min(os.cpu_count() or 1, len(points))
    if chunk_size is None:
        chunk_size = max(1, len(points) // (max(workers, 1) * 4))
    serial = workers <= 1 or len(points) <= 1
    rng = np.random.default_rng(retry_policy.seed if retry_policy else 0)
    sweep_start = time.perf_counter()
    deadline = time.monotonic() + timeout if timeout is not None else None

    if observer is not None:
        _preregister_sweep_metrics(observer.registry)
    if progress is not None:
        progress.start(total=len(points))
    sweep_span = None
    if spans is not None:
        sweep_span = spans.open(
            "sweep",
            "sweep",
            points=len(points),
            engine=engine,
            chunk_size=chunk_size,
        )

    outcome = SweepOutcome()
    attempts = dict.fromkeys(keys, 0)
    errors: dict[str, list[str]] = {key: [] for key in keys}
    by_key = {point.key: point for point in points}
    queue = deque(
        (points[start : start + chunk_size], f"chunk-{index:04d}")
        for index, start in enumerate(range(0, len(points), chunk_size))
    )
    # A serial sweep finishes (and heartbeats) each chunk before the
    # next one starts; a pool takes every queued chunk at once.
    window = 1 if serial else len(points)
    pending: dict[Future, tuple[list[str], str, Span | None]] = {}
    retries = 0
    pool = _SerialExecutor() if serial else ProcessPoolExecutor(workers)
    with pool:
        while queue or pending:
            while queue and len(pending) < window:
                chunk, label = queue.popleft()
                chunk_span = None
                if spans is not None:
                    chunk_span = spans.open(label, "chunk", points=len(chunk))
                    spans.close(chunk_span)
                submitted = pool.submit(
                    _run_chunk,
                    chunk,
                    engine,
                    runner,
                    deadline,
                    observer is not None,
                    spans.seed if spans is not None else 0,
                    chunk_span.path if chunk_span is not None else None,
                )
                pending[submitted] = (
                    [point.key for point in chunk], label, chunk_span
                )
            done, _ = wait(
                pending,
                timeout=(
                    None if deadline is None else deadline - time.monotonic()
                ),
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                chunk_keys, label, chunk_span = pending.pop(future)
                try:
                    reports, snapshot, records, elapsed, chunk_requests = (
                        future.result()
                    )
                except Exception as exc:  # noqa: BLE001 - whole chunk died
                    error = f"{type(exc).__name__}: {exc}"
                    reports = [(key, False, error) for key in chunk_keys]
                    snapshot = records = None
                    elapsed, chunk_requests = 0.0, 0
                if observer is not None and snapshot is not None:
                    observer.registry.merge(snapshot)
                    _chunk_throughput(
                        observer.registry, label, elapsed, chunk_requests
                    )
                if chunk_span is not None:
                    chunk_span.annotate(requests=chunk_requests)
                if spans is not None and records is not None:
                    spans.extend(records)
                for key, ok, payload in reports:
                    attempts[key] += 1
                    if ok:
                        outcome.results[key] = payload
                        continue
                    errors[key].append(payload)
                    if (
                        retry_policy is None
                        or attempts[key] >= retry_policy.max_attempts
                    ):
                        outcome.failures[key] = errors[key]
                        continue
                    # Retry the point alone so a chunk-mate's cost is
                    # not paid twice.
                    delay = retry_policy.backoff_delay(attempts[key] - 1, rng)
                    if observer is not None:
                        observer.registry.counter(
                            "repro_sweep_backoff_seconds_total"
                        ).inc(delay)
                    if delay > 0:
                        time.sleep(delay)
                    retries += 1
                    queue.append(
                        (
                            [by_key[key]],
                            f"retry-{_span_name(key)}-{attempts[key] + 1}",
                        )
                    )
                if progress is not None:
                    progress.update(
                        done=len(outcome.results),
                        failed=len(outcome.failures),
                        in_flight=sum(
                            len(waiting) for waiting, _, _ in pending.values()
                        ),
                        retried=retries,
                        counters=(
                            observer.registry.totals()
                            if observer is not None
                            else None
                        ),
                    )
            if deadline is not None and time.monotonic() >= deadline:
                break
        for future, (chunk_keys, _, _) in pending.items():
            # A chunk the pool already took counts as started: which of
            # its points ran is not knowable from here.
            if not future.cancel():
                for key in chunk_keys:
                    attempts[key] += 1
        if pending:
            pool.shutdown(wait=False, cancel_futures=True)

    for key in keys:
        if key not in outcome.results and key not in outcome.failures:
            errors[key].append(
                _CANCELLED_ERROR if attempts[key] == 0 else _TIMEOUT_ERROR
            )
            outcome.failures[key] = errors[key]
    outcome.attempts.update(attempts)

    if spans is not None:
        spans.close(sweep_span)
    retried = sum(1 for count in attempts.values() if count > 1)
    if observer is not None:
        from ..obs.profiling import PHASE_METRIC

        registry = observer.registry
        registry.counter("repro_sweep_points_total").inc(float(len(points)))
        registry.counter("repro_sweep_points_completed").inc(
            float(len(outcome.results))
        )
        registry.counter("repro_sweep_points_failed").inc(
            float(len(outcome.failures))
        )
        registry.counter("repro_sweep_points_cancelled").inc(
            float(len(outcome.cancelled))
        )
        registry.counter("repro_sweep_points_retried").inc(float(retried))
        registry.counter("repro_sweep_attempts_total").inc(
            float(sum(attempts.values()))
        )
        registry.gauge(
            PHASE_METRIC,
            help="wall-clock seconds spent per named phase",
            phase="sweep",
        ).add(time.perf_counter() - sweep_start)
    if progress is not None:
        progress.update(
            done=len(outcome.results),
            failed=len(outcome.failures),
            in_flight=0,
            retried=retried,
            counters=(
                observer.registry.totals() if observer is not None else None
            ),
            force=True,
        )
    return outcome


def _chunk_throughput(
    registry: "MetricsRegistry", label: str, elapsed: float, requests: int
) -> None:
    """Record one chunk's wall-clock cost and request throughput.

    Parent-only families (see :data:`WALLCLOCK_METRICS`): they carry
    wall-clock values, so they never ride in chunk snapshots and are
    stripped from deterministic comparisons.
    """
    registry.gauge(
        "repro_sweep_chunk_seconds",
        help="wall-clock seconds per completed chunk",
        chunk=label,
    ).set(elapsed)
    if elapsed > 0:
        registry.gauge(
            "repro_sweep_chunk_requests_per_second",
            help="simulated request throughput per completed chunk",
            chunk=label,
        ).set(requests / elapsed)

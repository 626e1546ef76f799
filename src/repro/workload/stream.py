"""Chunked, O(1)-memory streaming request pipelines.

The paper's evaluation replays daily CDN logs of 1-3M requests; the
north-star traces run 10-100x beyond that, and a fully materialized
request stream (three int64 columns) costs ~24 bytes per request —
2.4 GB at 100M requests before the engines even start.  This module
restructures every workload producer into fixed-size blocks so a trace
of any length replays under constant memory:

* :class:`RequestChunk` is the engine input unit: one block of
  ``pops`` / ``leaves`` / ``objects`` int64 columns.  Both simulation
  engines iterate ``workload.chunks()`` and fold per-chunk counters
  through the same ``SimulationResult.from_counters`` finalization, so
  a streamed replay is *bit-identical* to a materialized one (pinned
  by the differential suite).
* :class:`StreamingWorkload` pairs a re-iterable chunk factory with
  the per-object tables (``sizes``, ``origins``) that stay O(catalog).

Bit-identity with the one-shot producers rests on two NumPy
``Generator`` facts: drawing a column in blocks consumes the bit
generator exactly as one bulk draw does (``random``, ``integers``,
``choice(p=...)``, and ``exponential`` all verified by the seeded
tests), and ``bit_generator.state`` can be captured and restored.  A
producer therefore runs a *discarding prepass* that consumes the
caller's generator column by column — exactly as the materialized twin
would — capturing the state at each column boundary; the chunk factory
restores an independent generator per column and re-draws the same
values block by block.  Generation happens twice, but memory stays
O(chunk) and the caller's generator ends in the same state as the
one-shot call, so downstream draws never shift.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..cache.lru import LRUCache
from ..topology.network import Network
from .cdn import CONTENT_TYPES, OBJECTS_PER_REQUEST, region_profile
from .generator import assign_origins
from .sizes import lognormal_sizes, unit_sizes
from .spatial import skewed_rankings
from .trace import TraceRecord, anonymize, read_trace
from .zipf import ZipfDistribution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.registry import MetricsRegistry

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "RequestChunk",
    "StreamingWorkload",
    "pop_shard",
    "region_object_chunks",
    "stream_synthetic_cdn_trace",
    "stream_trace_objects",
    "stream_workload",
    "stream_workload_from_objects",
]

#: Default requests per chunk: 1M entries = 8 MB per int64 column, the
#: sweet spot between per-chunk Python overhead and peak scratch size.
DEFAULT_CHUNK_SIZE = 1 << 20

#: Placeholder seed for generators that are immediately re-pointed at a
#: captured bit-generator state; the seeded stream is never observed.
_STATE_RESTORE_SEED = 0


@dataclass(frozen=True)
class RequestChunk:
    """One fixed-size block of the request stream (the engine input unit)."""

    pops: np.ndarray
    leaves: np.ndarray
    objects: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.pops) == len(self.leaves) == len(self.objects)):
            raise ValueError("chunk columns must be equally long")

    def __len__(self) -> int:
        return len(self.objects)


@dataclass(frozen=True)
class StreamingWorkload:
    """A re-iterable chunked request stream plus its per-object tables.

    Everything the engines need besides the request columns stays
    O(catalog): ``sizes`` and ``origins`` are per-object arrays exactly
    as on :class:`~repro.workload.generator.Workload`.  ``chunk_factory``
    returns a *fresh* iterator of :class:`RequestChunk` blocks each
    call, so one workload can back multiple runs (baseline plus every
    architecture) just like a materialized one.

    ``num_requests`` is the stream's total length; the engines place the
    warmup boundary at an absolute request index derived from it.
    """

    num_objects: int
    sizes: np.ndarray
    origins: np.ndarray
    chunk_factory: Callable[[], Iterator[RequestChunk]] = field(repr=False)
    num_requests: int

    def chunks(self) -> Iterator[RequestChunk]:
        """A fresh pass over the request stream, block by block."""
        return self.chunk_factory()


def _generator_at(state: dict) -> np.random.Generator:
    """A fresh generator positioned at a captured bit-generator state."""
    gen = np.random.default_rng(_STATE_RESTORE_SEED)
    gen.bit_generator.state = state
    return gen


def _blocks(total: int, chunk_size: int) -> Iterator[int]:
    """Block sizes covering ``total`` requests, ``chunk_size`` at a time."""
    for start in range(0, total, chunk_size):
        yield min(chunk_size, total - start)


def _check_chunk_size(chunk_size: int) -> None:
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")


def stream_workload(
    network: Network,
    num_objects: int,
    num_requests: int,
    alpha: float,
    rng: np.random.Generator,
    spatial_skew: float = 0.0,
    sizes: np.ndarray | None = None,
    origin_mode: str = "proportional",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> StreamingWorkload:
    """Streaming twin of :func:`~repro.workload.generator.generate_workload`.

    Same signature, same seed, same numbers: the chunked stream is
    bit-identical to the materialized workload's columns and the
    caller's ``rng`` finishes in the same state.  Peak memory is
    O(catalog + chunk) instead of O(requests); spatial skew keeps its
    O(objects x PoPs) ranking table, exactly as the one-shot path.
    """
    if num_requests < 0:
        raise ValueError(f"num_requests must be >= 0, got {num_requests}")
    _check_chunk_size(chunk_size)
    zipf = ZipfDistribution(alpha, num_objects)
    pop_weights = np.asarray(network.pop_topology.population_weights())
    num_pops = network.num_pops
    leaves_range = network.tree.leaves
    # Discarding prepass: consume rng column by column in the exact
    # one-shot order, capturing the state at each column boundary.
    pops_state = rng.bit_generator.state
    for block in _blocks(num_requests, chunk_size):
        rng.choice(num_pops, size=block, p=pop_weights)
    leaves_state = rng.bit_generator.state
    for block in _blocks(num_requests, chunk_size):
        rng.integers(
            leaves_range.start, leaves_range.stop, size=block, dtype=np.int64
        )
    ranks_state = rng.bit_generator.state
    for block in _blocks(num_requests, chunk_size):
        zipf.sample(rng, block)
    if spatial_skew > 0.0:
        rankings = skewed_rankings(num_objects, num_pops, spatial_skew, rng)
    else:
        rankings = None
    if sizes is None:
        sizes = unit_sizes(num_objects)
    origins = assign_origins(network, num_objects, rng, mode=origin_mode)

    def factory() -> Iterator[RequestChunk]:
        g_pops = _generator_at(pops_state)
        g_leaves = _generator_at(leaves_state)
        g_ranks = _generator_at(ranks_state)
        for block in _blocks(num_requests, chunk_size):
            pops = g_pops.choice(num_pops, size=block, p=pop_weights).astype(
                np.int64
            )
            leaves = g_leaves.integers(
                leaves_range.start, leaves_range.stop, size=block,
                dtype=np.int64,
            )
            ranks = zipf.sample(g_ranks, block)
            objects = rankings[pops, ranks] if rankings is not None else ranks
            yield RequestChunk(pops=pops, leaves=leaves, objects=objects)

    return StreamingWorkload(
        num_objects=num_objects,
        sizes=np.asarray(sizes, dtype=np.float64),
        origins=origins,
        chunk_factory=factory,
        num_requests=num_requests,
    )


def stream_workload_from_objects(
    network: Network,
    object_chunks: Callable[[], Iterator[np.ndarray]],
    num_objects: int,
    num_requests: int,
    rng: np.random.Generator,
    sizes: np.ndarray | None = None,
    origin_mode: str = "proportional",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> StreamingWorkload:
    """Streaming twin of :func:`~repro.workload.generator.workload_from_objects`.

    ``object_chunks`` is a re-iterable factory yielding the trace's
    object-id blocks (any block sizes, totalling ``num_requests``);
    arrival PoPs and leaves are drawn per block from the standard
    models, bit-identical to the one-shot wrap of the concatenated
    sequence.  Object ids are range-checked as blocks stream through.
    """
    if num_requests < 0:
        raise ValueError(f"num_requests must be >= 0, got {num_requests}")
    _check_chunk_size(chunk_size)
    pop_weights = np.asarray(network.pop_topology.population_weights())
    num_pops = network.num_pops
    leaves_range = network.tree.leaves
    pops_state = rng.bit_generator.state
    for block in _blocks(num_requests, chunk_size):
        rng.choice(num_pops, size=block, p=pop_weights)
    leaves_state = rng.bit_generator.state
    for block in _blocks(num_requests, chunk_size):
        rng.integers(
            leaves_range.start, leaves_range.stop, size=block, dtype=np.int64
        )
    if sizes is None:
        sizes = unit_sizes(num_objects)
    origins = assign_origins(network, num_objects, rng, mode=origin_mode)

    def factory() -> Iterator[RequestChunk]:
        g_pops = _generator_at(pops_state)
        g_leaves = _generator_at(leaves_state)
        total = 0
        for raw in object_chunks():
            objects = np.asarray(raw, dtype=np.int64)
            if objects.size and (
                objects.min() < 0 or objects.max() >= num_objects
            ):
                raise ValueError("object ids out of range")
            block = len(objects)
            total += block
            if total > num_requests:
                raise ValueError(
                    f"object stream longer than the declared {num_requests} "
                    "requests"
                )
            pops = g_pops.choice(num_pops, size=block, p=pop_weights).astype(
                np.int64
            )
            leaves = g_leaves.integers(
                leaves_range.start, leaves_range.stop, size=block,
                dtype=np.int64,
            )
            yield RequestChunk(pops=pops, leaves=leaves, objects=objects)
        if total != num_requests:
            raise ValueError(
                f"object stream yielded {total} requests, declared "
                f"{num_requests}"
            )

    return StreamingWorkload(
        num_objects=num_objects,
        sizes=np.asarray(sizes, dtype=np.float64),
        origins=origins,
        chunk_factory=factory,
        num_requests=num_requests,
    )


def pop_shard(
    workload: StreamingWorkload,
    shard: int,
    num_shards: int,
) -> StreamingWorkload:
    """The sub-stream of requests arriving at PoPs of one shard.

    Request order within the shard is preserved (``pop % num_shards ==
    shard`` filtering), so the ``num_shards`` shards partition the
    parent stream exactly: additive counters (e.g. the no-cache
    baseline at ``warmup_fraction=0``) merge back to the whole-stream
    run bit for bit.  The parent stream is consumed once up front —
    O(chunk) memory — so the shard knows its length (and therefore
    supports warmup).
    """
    if not 0 <= shard < num_shards:
        raise ValueError(f"shard must be in [0, {num_shards}), got {shard}")
    shard_requests = 0
    for chunk in workload.chunks():
        shard_requests += int(np.count_nonzero(chunk.pops % num_shards == shard))

    def factory() -> Iterator[RequestChunk]:
        for chunk in workload.chunks():
            keep = chunk.pops % num_shards == shard
            if not keep.any():
                continue
            yield RequestChunk(
                pops=chunk.pops[keep],
                leaves=chunk.leaves[keep],
                objects=chunk.objects[keep],
            )

    return StreamingWorkload(
        num_objects=workload.num_objects,
        sizes=workload.sizes,
        origins=workload.origins,
        chunk_factory=factory,
        num_requests=shard_requests,
    )


def region_object_chunks(
    region: str,
    rng: np.random.Generator,
    scale: float = 1.0,
    num_objects: int | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> tuple[Callable[[], Iterator[np.ndarray]], int, int]:
    """Chunked twin of :func:`~repro.workload.cdn.region_object_stream`.

    Returns ``(chunk_factory, num_objects, num_requests)``; the
    factory's concatenated blocks equal the one-shot rank array bit for
    bit, and the caller's ``rng`` is consumed exactly as the one-shot
    call would (so follow-on draws never shift).
    """
    _check_chunk_size(chunk_size)
    profile = region_profile(region)
    num_requests = max(1, int(profile.num_requests * scale))
    if num_objects is None:
        num_objects = max(1, int(num_requests * OBJECTS_PER_REQUEST))
    zipf = ZipfDistribution(profile.alpha, num_objects)
    state = rng.bit_generator.state
    for block in _blocks(num_requests, chunk_size):
        zipf.sample(rng, block)

    def factory() -> Iterator[np.ndarray]:
        return zipf.sample_chunks(
            _generator_at(state), num_requests, chunk_size
        )

    return factory, num_objects, num_requests


def stream_synthetic_cdn_trace(
    region: str,
    rng: np.random.Generator,
    scale: float = 1.0,
    num_objects: int | None = None,
    local_cache_fraction: float = 0.05,
    requests_per_second: float = 50.0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[TraceRecord]:
    """Streaming twin of :func:`~repro.workload.cdn.synthetic_cdn_trace`.

    Yields the identical record sequence one record at a time, holding
    only per-object tables plus one block of request-level draws; the
    running timestamp accumulates with the same sequential float64
    additions ``np.cumsum`` performs, so timestamps match bit for bit.
    Feed it straight into :func:`~repro.workload.trace.write_trace` to
    serialize logs far larger than memory.
    """
    _check_chunk_size(chunk_size)
    profile = region_profile(region)
    num_requests = max(1, int(profile.num_requests * scale))
    if num_objects is None:
        num_objects = max(1, int(num_requests * OBJECTS_PER_REQUEST))
    zipf = ZipfDistribution(profile.alpha, num_objects)
    objects_state = rng.bit_generator.state
    for block in _blocks(num_requests, chunk_size):
        zipf.sample(rng, block)
    sizes = np.maximum(1, lognormal_sizes(num_objects, rng)).astype(np.int64)
    content_type = rng.integers(0, len(CONTENT_TYPES), size=num_objects)
    num_clients = max(1, num_requests // 50)
    clients_state = rng.bit_generator.state
    for block in _blocks(num_requests, chunk_size):
        rng.integers(0, num_clients, size=block)
    gaps_state = rng.bit_generator.state
    for block in _blocks(num_requests, chunk_size):
        rng.exponential(1.0 / requests_per_second, size=block)

    urls = {}
    g_objects = _generator_at(objects_state)
    g_clients = _generator_at(clients_state)
    g_gaps = _generator_at(gaps_state)
    cluster_cache = LRUCache(
        capacity=max(1.0, local_cache_fraction * num_objects)
    )
    timestamp = 0.0
    for block in _blocks(num_requests, chunk_size):
        objects = zipf.sample(g_objects, block)
        block_clients = g_clients.integers(0, num_clients, size=block)
        gaps = g_gaps.exponential(1.0 / requests_per_second, size=block)
        gap_list = gaps.tolist()
        for j in range(block):
            obj = int(objects[j])
            served_locally = cluster_cache.lookup(obj)
            if not served_locally:
                cluster_cache.insert(obj)
            url = urls.get(obj)
            if url is None:
                url = (
                    f"https://cdn.example/{CONTENT_TYPES[content_type[obj]]}/"
                    f"{anonymize(f'{region}-object-{obj}')}"
                )
                urls[obj] = url
            timestamp += gap_list[j]
            yield TraceRecord(
                timestamp=timestamp,
                client=anonymize(f"{region}-client-{int(block_clients[j])}"),
                url=url,
                size=int(sizes[obj]),
                served_locally=served_locally,
            )


def stream_trace_objects(
    path: str,
    registry: "MetricsRegistry | None" = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> tuple[Callable[[], Iterator[np.ndarray]], dict[str, int], np.ndarray, int]:
    """Two-pass streaming twin of :func:`~repro.workload.trace.object_ids_by_popularity`.

    Pass one streams the file through ``read_trace`` (mirroring skips
    into ``registry``) accumulating only per-URL tallies; the
    popularity ranking is densified from those tallies without ever
    listing the records.  Returns ``(chunk_factory, url_to_id, sizes,
    num_requests)``; each ``chunk_factory()`` call re-reads the file
    and yields the ranked per-request ids in int64 blocks —
    concatenated, they equal the materialized ``objects`` array
    exactly.  Memory is O(catalog + chunk) throughout.
    """
    _check_chunk_size(chunk_size)
    first_seen: dict[str, int] = {}
    counts: list[int] = []
    last_size: list[float] = []
    num_requests = 0
    for record in read_trace(path, registry=registry):
        pid = first_seen.setdefault(record.url, len(first_seen))
        if pid == len(counts):
            counts.append(0)
            last_size.append(1.0)
        counts[pid] += 1
        last_size[pid] = float(record.size)
        num_requests += 1
    order = sorted(range(len(counts)), key=counts.__getitem__, reverse=True)
    rank_list = [0] * len(counts)
    for rank, pid in enumerate(order):
        rank_list[pid] = rank
    rank_of = {url: rank_list[pid] for url, pid in first_seen.items()}
    urls = list(first_seen)
    url_to_id = {urls[pid]: rank for rank, pid in enumerate(order)}
    sizes = np.asarray(last_size, dtype=np.float64)[order]

    def factory() -> Iterator[np.ndarray]:
        # Skips were already counted in pass one; recounting here would
        # double the registry totals.
        buf = np.empty(chunk_size, dtype=np.int64)
        fill = 0
        for record in read_trace(path):
            buf[fill] = rank_of[record.url]
            fill += 1
            if fill == chunk_size:
                yield buf
                buf = np.empty(chunk_size, dtype=np.int64)
                fill = 0
        if fill:
            yield buf[:fill]

    return factory, url_to_id, sizes, num_requests

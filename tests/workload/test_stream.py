"""Tests for the chunked O(1)-memory streaming workload pipeline.

Every streamed producer has a materialized twin; the contract under
test is *bit-identity*: concatenated chunks equal the one-shot arrays,
and the caller's generator ends in the one-shot end state (so draws
after the producer never shift).
"""

import numpy as np
import pytest

from repro.topology import AccessTree, Network
from repro.workload import (
    RequestChunk,
    StreamingWorkload,
    generate_workload,
    object_ids_by_popularity,
    pop_shard,
    read_trace,
    region_object_chunks,
    region_object_stream,
    stream_synthetic_cdn_trace,
    stream_trace_objects,
    stream_workload,
    stream_workload_from_objects,
    synthetic_cdn_trace,
    workload_from_objects,
    write_trace,
)


@pytest.fixture
def network(small_topology):
    return Network(small_topology, AccessTree(arity=2, depth=3))


def concat(workload: StreamingWorkload):
    chunks = list(workload.chunks())
    return (
        np.concatenate([c.pops for c in chunks]),
        np.concatenate([c.leaves for c in chunks]),
        np.concatenate([c.objects for c in chunks]),
    )


class TestRequestChunk:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equally long"):
            RequestChunk(
                pops=np.zeros(3, dtype=np.int64),
                leaves=np.zeros(3, dtype=np.int64),
                objects=np.zeros(2, dtype=np.int64),
            )

    def test_len(self):
        chunk = RequestChunk(
            pops=np.zeros(5, dtype=np.int64),
            leaves=np.zeros(5, dtype=np.int64),
            objects=np.zeros(5, dtype=np.int64),
        )
        assert len(chunk) == 5


class TestWorkloadChunks:
    """Materialized workloads speak the same chunk protocol."""

    def test_default_is_one_full_chunk(self, network):
        workload = generate_workload(
            network, 50, 1_000, 1.0, np.random.default_rng(0)
        )
        chunks = list(workload.chunks())
        assert len(chunks) == 1
        assert np.shares_memory(chunks[0].objects, workload.objects)

    def test_explicit_chunk_size_partitions(self, network):
        workload = generate_workload(
            network, 50, 1_000, 1.0, np.random.default_rng(0)
        )
        chunks = list(workload.chunks(chunk_size=333))
        assert [len(c) for c in chunks] == [333, 333, 333, 1]
        assert np.array_equal(
            np.concatenate([c.objects for c in chunks]), workload.objects
        )
        with pytest.raises(ValueError):
            list(workload.chunks(chunk_size=0))


class TestStreamWorkload:
    @pytest.mark.parametrize("spatial_skew", [0.0, 0.5])
    def test_bit_identical_to_generate_workload(self, network, spatial_skew):
        rng_m = np.random.default_rng(13)
        rng_s = np.random.default_rng(13)
        materialized = generate_workload(
            network, 100, 7_001, 1.04, rng_m, spatial_skew=spatial_skew
        )
        streamed = stream_workload(
            network, 100, 7_001, 1.04, rng_s,
            spatial_skew=spatial_skew, chunk_size=512,
        )
        pops, leaves, objects = concat(streamed)
        assert np.array_equal(pops, materialized.pops)
        assert np.array_equal(leaves, materialized.leaves)
        assert np.array_equal(objects, materialized.objects)
        assert np.array_equal(streamed.sizes, materialized.sizes)
        assert np.array_equal(streamed.origins, materialized.origins)
        assert streamed.num_requests == materialized.num_requests
        # The caller's generator must land in the one-shot end state.
        assert rng_s.bit_generator.state == rng_m.bit_generator.state

    def test_chunks_are_re_iterable(self, network):
        streamed = stream_workload(
            network, 50, 2_000, 1.0, np.random.default_rng(5), chunk_size=300
        )
        first = np.concatenate([c.objects for c in streamed.chunks()])
        second = np.concatenate([c.objects for c in streamed.chunks()])
        assert np.array_equal(first, second)

    def test_invalid_arguments(self, network):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            stream_workload(network, 10, -1, 1.0, rng)
        with pytest.raises(ValueError):
            stream_workload(network, 10, 10, 1.0, rng, chunk_size=0)


class TestStreamWorkloadFromObjects:
    def test_bit_identical_to_workload_from_objects(self, network):
        objects = (np.random.default_rng(1).random(4_000) ** 2 * 40).astype(
            np.int64
        )
        rng_m = np.random.default_rng(21)
        rng_s = np.random.default_rng(21)
        materialized = workload_from_objects(network, objects, 40, rng_m)

        def object_chunks():
            for start in range(0, len(objects), 700):
                yield objects[start : start + 700]

        streamed = stream_workload_from_objects(
            network, object_chunks, 40, len(objects), rng_s, chunk_size=700
        )
        pops, leaves, streamed_objects = concat(streamed)
        assert np.array_equal(pops, materialized.pops)
        assert np.array_equal(leaves, materialized.leaves)
        assert np.array_equal(streamed_objects, materialized.objects)
        assert np.array_equal(streamed.origins, materialized.origins)
        assert rng_s.bit_generator.state == rng_m.bit_generator.state

    def test_out_of_range_ids_rejected(self, network):
        streamed = stream_workload_from_objects(
            network,
            lambda: iter([np.asarray([0, 5], dtype=np.int64)]),
            3,
            2,
            np.random.default_rng(0),
        )
        with pytest.raises(ValueError, match="out of range"):
            list(streamed.chunks())

    def test_length_mismatch_rejected(self, network):
        streamed = stream_workload_from_objects(
            network,
            lambda: iter([np.zeros(3, dtype=np.int64)]),
            3,
            5,
            np.random.default_rng(0),
        )
        with pytest.raises(ValueError, match="yielded 3"):
            list(streamed.chunks())


class TestRegionObjectChunks:
    def test_bit_identical_to_region_object_stream(self):
        rng_m = np.random.default_rng(3)
        rng_s = np.random.default_rng(3)
        one_shot, num_objects = region_object_stream("asia", rng_m, scale=0.01)
        factory, chunk_objects, num_requests = region_object_chunks(
            "asia", rng_s, scale=0.01, chunk_size=999
        )
        assert chunk_objects == num_objects
        assert num_requests == len(one_shot)
        assert np.array_equal(np.concatenate(list(factory())), one_shot)
        assert rng_s.bit_generator.state == rng_m.bit_generator.state


class TestStreamSyntheticCdnTrace:
    def test_identical_record_sequence(self):
        rng_m = np.random.default_rng(9)
        rng_s = np.random.default_rng(9)
        one_shot = synthetic_cdn_trace("us", rng_m, scale=0.005)
        streamed = list(
            stream_synthetic_cdn_trace("us", rng_s, scale=0.005, chunk_size=313)
        )
        # Timestamps accumulate with the same float64 additions cumsum
        # performs, so even they are covered by exact equality here.
        assert streamed == one_shot
        assert rng_s.bit_generator.state == rng_m.bit_generator.state


class TestStreamTraceObjects:
    def test_matches_object_ids_by_popularity(self, tmp_path):
        records = synthetic_cdn_trace(
            "europe", np.random.default_rng(4), scale=0.002
        )
        path = tmp_path / "trace.tsv"
        write_trace(path, records)
        objects, url_to_id, sizes = object_ids_by_popularity(read_trace(path))
        factory, streamed_urls, streamed_sizes, num_requests = (
            stream_trace_objects(str(path), chunk_size=271)
        )
        assert streamed_urls == url_to_id
        assert np.array_equal(streamed_sizes, sizes)
        assert num_requests == len(objects)
        assert np.array_equal(np.concatenate(list(factory())), objects)

    def test_skips_counted_once(self, tmp_path):
        from repro.obs import MetricsRegistry
        from repro.workload import SKIPPED_LINES_METRIC, TraceRecord

        path = tmp_path / "trace.tsv"
        good = TraceRecord(
            timestamp=1.0, client="c", url="u", size=9, served_locally=False
        )
        path.write_text(good.to_line() + "\nbroken\tline\n")
        registry = MetricsRegistry()
        factory, _, _, num_requests = stream_trace_objects(
            str(path), registry=registry
        )
        assert num_requests == 1
        # Replaying chunks re-reads the file but must not recount skips.
        list(factory())
        list(factory())
        assert registry.value(SKIPPED_LINES_METRIC, reason="truncated") == 1


class TestPopShard:
    def _streamed(self, network):
        return stream_workload(
            network, 60, 5_000, 1.0, np.random.default_rng(17), chunk_size=640
        )

    def test_shards_partition_the_stream(self, network):
        workload = self._streamed(network)
        shards = [pop_shard(workload, s, 3) for s in range(3)]
        assert sum(s.num_requests for s in shards) == workload.num_requests
        for index, shard in enumerate(shards):
            pops = np.concatenate([c.pops for c in shard.chunks()])
            assert ((pops % 3) == index).all()
            assert len(pops) == shard.num_requests

    def test_shard_preserves_order_and_tables(self, network):
        workload = self._streamed(network)
        shard = pop_shard(workload, 1, 2)
        pops, leaves, objects = concat(workload)
        keep = pops % 2 == 1
        shard_pops, shard_leaves, shard_objects = concat(shard)
        assert np.array_equal(shard_pops, pops[keep])
        assert np.array_equal(shard_leaves, leaves[keep])
        assert np.array_equal(shard_objects, objects[keep])
        assert shard.sizes is workload.sizes
        assert shard.origins is workload.origins

    def test_invalid_shard_rejected(self, network):
        workload = self._streamed(network)
        with pytest.raises(ValueError):
            pop_shard(workload, 3, 3)
        with pytest.raises(ValueError):
            pop_shard(workload, -1, 3)

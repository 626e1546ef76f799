"""Hierarchical spans: determinism, merging, and reading a file back."""

from __future__ import annotations

import json

import pytest

from repro.obs import SPAN_SCHEMA, SpanTracker, read_spans, span_id

#: ``_small_tree()`` as ``to_jsonl()`` writes it.
SMALL_TREE_JSONL = (
    '{"attrs":{"seed":7},"id":"425d0db67c36faa7","kind":"run","name":"run",'
    '"observations":{},"parent":null,"path":"run",'
    '"schema":"repro.obs/spans/v1","seed":7}\n'
    '{"attrs":{"points":2},"id":"0a636f7d75b489e0","kind":"sweep",'
    '"name":"sweep","observations":{},"parent":"425d0db67c36faa7",'
    '"path":"run/sweep","schema":"repro.obs/spans/v1","seed":7}\n'
    '{"attrs":{"points":2},"id":"fd33898cf4543d5e","kind":"chunk",'
    '"name":"chunk-0000","observations":{"queue_depth":{"count":2,'
    '"max":3.0,"min":1.0,"sum":4.0}},"parent":"0a636f7d75b489e0",'
    '"path":"run/sweep/chunk-0000","schema":"repro.obs/spans/v1","seed":7}\n'
    '{"attrs":{"key":"a","requests":10},"id":"6f3a8c7bacf63147",'
    '"kind":"point","name":"point-a","observations":{},'
    '"parent":"fd33898cf4543d5e","path":"run/sweep/chunk-0000/point-a",'
    '"schema":"repro.obs/spans/v1","seed":7}\n'
    '{"attrs":{"key":"b","requests":12},"id":"92f5ec97c19d839a",'
    '"kind":"point","name":"point-b","observations":{},'
    '"parent":"fd33898cf4543d5e","path":"run/sweep/chunk-0000/point-b",'
    '"schema":"repro.obs/spans/v1","seed":7}\n'
)


def _small_tree(seed: int = 7) -> SpanTracker:
    tracker = SpanTracker(seed)
    run = tracker.open("run", "run", seed=seed)
    with tracker.span("sweep", "sweep", points=2):
        with tracker.span("chunk-0000", "chunk", points=2) as chunk:
            chunk.observe("queue_depth", 3.0)
            chunk.observe("queue_depth", 1.0)
            with tracker.span("point-a", "point", key="a", requests=10):
                pass
            with tracker.span("point-b", "point", key="b", requests=12):
                pass
    tracker.close(run)
    return tracker


class TestIdentity:
    def test_span_id_is_pure_function_of_seed_and_path(self):
        assert span_id(7, "run/sweep") == span_id(7, "run/sweep")
        assert span_id(7, "run/sweep") != span_id(8, "run/sweep")
        assert span_id(7, "run/sweep") != span_id(7, "run/chunk")
        assert len(span_id(7, "run")) == 16

    def test_two_builds_are_byte_identical(self):
        assert _small_tree().to_jsonl() == _small_tree().to_jsonl()

    def test_bytes_are_pinned(self):
        assert _small_tree().to_jsonl() == SMALL_TREE_JSONL

    def test_records_are_path_sorted_parents_first(self):
        records = _small_tree().records()
        paths = [r["path"] for r in records]
        assert paths == sorted(paths)
        ids = {r["path"]: r["id"] for r in records}
        for record in records:
            if record["parent"] is not None:
                parent_path = record["path"].rsplit("/", 1)[0]
                assert record["parent"] == ids[parent_path]

    def test_observations_aggregate_count_sum_min_max(self):
        records = _small_tree().records()
        chunk = next(r for r in records if r["kind"] == "chunk")
        stats = chunk["observations"]["queue_depth"]
        assert stats == {"count": 2, "sum": 4.0, "min": 1.0, "max": 3.0}


class TestDiscipline:
    def test_duplicate_path_rejected(self):
        tracker = SpanTracker(1)
        with tracker.span("run", "run"):
            pass
        with pytest.raises(ValueError, match="duplicate"):
            tracker.open("run", "run")

    def test_closing_non_innermost_rejected(self):
        tracker = SpanTracker(1)
        outer = tracker.open("run", "run")
        tracker.open("sweep", "sweep")
        with pytest.raises(ValueError, match="innermost"):
            tracker.close(outer)

    def test_records_while_open_rejected(self):
        tracker = SpanTracker(1)
        tracker.open("run", "run")
        with pytest.raises(ValueError, match="still open"):
            tracker.records()

    def test_unknown_kind_and_slash_name_rejected(self):
        tracker = SpanTracker(1)
        with pytest.raises(ValueError, match="hierarchy"):
            tracker.open("run", "epoch")
        with pytest.raises(ValueError, match="no '/'"):
            tracker.open("a/b", "run")


class TestWorkerMerge:
    def test_prefixed_worker_records_link_to_parent_chunk(self):
        parent = SpanTracker(7)
        run = parent.open("run", "run")
        with parent.span("chunk-0000", "chunk") as chunk:
            chunk_path = chunk.path
        worker = SpanTracker(7, prefix=chunk_path)
        with worker.span("point-a", "point", key="a"):
            pass
        parent.extend(worker.records())
        parent.close(run)
        records = parent.records()
        point = next(r for r in records if r["kind"] == "point")
        assert point["path"] == "run/chunk-0000/point-a"
        assert point["parent"] == span_id(7, chunk_path)

    def test_merge_span_records_order_independent(self):
        # run_sweep merges worker shards through extend, in arrival order.
        records = _small_tree().records()
        a, b = records[:2], records[2:]
        forward, backward = SpanTracker(7), SpanTracker(7)
        forward.extend(a)
        forward.extend(b)
        backward.extend(reversed(b))
        backward.extend(reversed(a))
        assert forward.to_jsonl() == backward.to_jsonl() == SMALL_TREE_JSONL

    def test_merge_span_records_rejects_duplicates(self):
        records = _small_tree().records()
        merged = SpanTracker(7)
        merged.extend(records)
        with pytest.raises(ValueError, match="duplicate"):
            merged.extend(records[:1])


def _write_lines(tmp_path, records):
    path = tmp_path / "spans.jsonl"
    path.write_text(
        "".join(
            json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
            for r in records
        )
    )
    return path


class TestValidation:
    def test_tree_validates(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        _small_tree().write(path)
        records = read_spans(path)
        assert records == _small_tree().records()
        assert len(records) == 5
        assert sum(r["parent"] is None for r in records) == 1

    def test_record_with_wrong_id_rejected(self, tmp_path):
        records = _small_tree().records()
        records[1]["id"] = "0" * 16
        with pytest.raises(ValueError, match="line 2: not the canonical"):
            read_spans(_write_lines(tmp_path, records))

    def test_record_with_wrong_schema_rejected(self, tmp_path):
        records = _small_tree().records()
        records[0]["schema"] = "repro.obs/spans/v0"
        with pytest.raises(ValueError, match="line 1: not the canonical"):
            read_spans(_write_lines(tmp_path, records))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("parent", None),
            ("name", "renamed"),
            ("seed", 8),
            ("extra", 1),
        ],
    )
    def test_record_that_does_not_reserialize_rejected(
        self, tmp_path, field, value
    ):
        records = _small_tree().records()
        records[2][field] = value
        with pytest.raises(ValueError, match="line 3: not the canonical"):
            read_spans(_write_lines(tmp_path, records))

    def test_unknown_kind_and_duplicate_rejected(self, tmp_path):
        records = _small_tree().records()
        records[2]["kind"] = "epoch"
        with pytest.raises(ValueError, match="line 3: .*hierarchy"):
            read_spans(_write_lines(tmp_path, records))
        records = _small_tree().records()
        with pytest.raises(ValueError, match="line 6: duplicate"):
            read_spans(_write_lines(tmp_path, records + records[-1:]))

    def test_unsorted_file_rejected(self, tmp_path):
        records = _small_tree().records()
        path = _write_lines(tmp_path, reversed(records))
        with pytest.raises(ValueError, match="line 1: .*order"):
            read_spans(path)

    def test_orphan_record_rejected(self, tmp_path):
        records = [
            r for r in _small_tree().records() if r["kind"] != "chunk"
        ]
        path = _write_lines(tmp_path, records)
        with pytest.raises(ValueError, match="parent path"):
            read_spans(path)

    def test_schema_tag_exported(self):
        assert all(
            r["schema"] == SPAN_SCHEMA for r in _small_tree().records()
        )

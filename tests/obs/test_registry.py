"""MetricsRegistry: counters, gauges, histograms, and both exports."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    REGISTRY_SCHEMA,
)

#: ``TestExports._populated()`` as ``to_json()`` writes it.
POPULATED_JSON = """\
{
  "metrics": [
    {
      "help": "",
      "name": "repro_phase_seconds",
      "samples": [
        {
          "labels": {
            "phase": "sim"
          },
          "value": 0.25
        }
      ],
      "type": "gauge"
    },
    {
      "help": "",
      "name": "repro_requests_total",
      "samples": [
        {
          "labels": {
            "architecture": "EDGE"
          },
          "value": 7.0
        }
      ],
      "type": "counter"
    },
    {
      "help": "",
      "name": "repro_span_seconds",
      "samples": [
        {
          "buckets": [
            [
              0.001,
              0
            ],
            [
              0.005,
              1
            ],
            [
              0.01,
              1
            ],
            [
              0.05,
              1
            ],
            [
              0.1,
              1
            ],
            [
              0.5,
              1
            ],
            [
              1.0,
              1
            ],
            [
              5.0,
              2
            ],
            [
              10.0,
              2
            ],
            [
              50.0,
              2
            ],
            [
              100.0,
              2
            ]
          ],
          "count": 2,
          "labels": {},
          "sum": 4.203
        }
      ],
      "type": "histogram"
    }
  ],
  "schema": "repro.obs/registry/v1"
}"""

#: ``TestExports._populated()`` as ``to_prometheus()`` writes it.
POPULATED_PROMETHEUS = """\
# TYPE repro_phase_seconds gauge
repro_phase_seconds{phase="sim"} 0.25
# TYPE repro_requests_total counter
repro_requests_total{architecture="EDGE"} 7
# TYPE repro_span_seconds histogram
repro_span_seconds_bucket{le="0.001"} 0
repro_span_seconds_bucket{le="0.005"} 1
repro_span_seconds_bucket{le="0.01"} 1
repro_span_seconds_bucket{le="0.05"} 1
repro_span_seconds_bucket{le="0.1"} 1
repro_span_seconds_bucket{le="0.5"} 1
repro_span_seconds_bucket{le="1"} 1
repro_span_seconds_bucket{le="5"} 2
repro_span_seconds_bucket{le="10"} 2
repro_span_seconds_bucket{le="50"} 2
repro_span_seconds_bucket{le="100"} 2
repro_span_seconds_bucket{le="+Inf"} 2
repro_span_seconds_sum 4.203
repro_span_seconds_count 2
"""


class TestSamples:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_requests_total", help="requests")
        c.inc()
        c.inc(4.0)
        assert reg.value("repro_requests_total") == 5.0

    def test_counter_rejects_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("repro_x_total").inc(-1.0)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_phase_seconds", phase="setup")
        g.add(2.5)
        g.add(-1.0)
        assert reg.value("repro_phase_seconds", phase="setup") == 1.5

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_span_seconds", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        cumulative = h.cumulative()
        assert cumulative == [1, 2, 3]
        assert h.sum == pytest.approx(55.5)
        assert h.count == 3

    def test_labels_split_samples(self):
        reg = MetricsRegistry()
        reg.inc("repro_events_total", event="a")
        reg.inc("repro_events_total", 2.0, event="b")
        assert reg.value("repro_events_total", event="a") == 1.0
        assert reg.value("repro_events_total", event="b") == 2.0

    def test_unwritten_value_is_zero(self):
        reg = MetricsRegistry()
        assert reg.value("repro_never_written_total") == 0.0

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_thing_total")
        with pytest.raises(ValueError):
            reg.gauge("repro_thing_total")

    def test_label_set_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_thing_total", a="1")
        with pytest.raises(ValueError):
            reg.counter("repro_thing_total", b="2")


class TestExports:
    def _populated(self):
        reg = MetricsRegistry()
        reg.inc("repro_requests_total", 7, architecture="EDGE")
        reg.gauge("repro_phase_seconds", phase="sim").add(0.25)
        h = reg.histogram("repro_span_seconds", buckets=DEFAULT_BUCKETS)
        h.observe(0.003)
        h.observe(4.2)
        return reg

    def test_snapshot_is_schema_valid(self):
        reg = self._populated()
        snapshot = reg.snapshot()
        assert snapshot["schema"] == REGISTRY_SCHEMA
        rebuilt = MetricsRegistry.from_json(reg.to_json())
        assert rebuilt.snapshot() == snapshot

    def test_json_roundtrip_is_deterministic(self):
        reg = self._populated()
        text = reg.to_json()
        assert text == self._populated().to_json()
        assert json.loads(text)["schema"] == REGISTRY_SCHEMA

    def test_json_bytes_are_pinned(self):
        assert self._populated().to_json() == POPULATED_JSON

    def test_prometheus_text_validates(self):
        assert self._populated().to_prometheus() == POPULATED_PROMETHEUS

    def test_prometheus_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.inc("repro_events_total", host='we"ird\\host\n')
        assert reg.to_prometheus().splitlines() == [
            "# TYPE repro_events_total counter",
            'repro_events_total{host="we\\"ird\\\\host\\n"} 1',
        ]

    def test_nan_renders_and_validates(self):
        reg = MetricsRegistry()
        reg.gauge("repro_odd_gauge").add(math.nan)
        assert reg.to_prometheus() == (
            "# TYPE repro_odd_gauge gauge\nrepro_odd_gauge NaN\n"
        )
        # A NaN gauge reads back: canonical JSON compares NaN equal.
        rebuilt = MetricsRegistry.from_json(reg.to_json())
        assert rebuilt.to_prometheus() == reg.to_prometheus()

    def test_infinities_render_prometheus_spellings(self):
        # The text format requires `+Inf`/`-Inf`, not Python's `inf`.
        reg = MetricsRegistry()
        reg.gauge("repro_pos_gauge").set(math.inf)
        reg.gauge("repro_neg_gauge").set(-math.inf)
        assert reg.to_prometheus().splitlines() == [
            "# TYPE repro_neg_gauge gauge",
            "repro_neg_gauge -Inf",
            "# TYPE repro_pos_gauge gauge",
            "repro_pos_gauge +Inf",
        ]


class TestHistogramBoundaries:
    def test_value_equal_to_bound_counts_toward_that_bucket(self):
        # Prometheus buckets are `le` (<=): an observation exactly on a
        # bound belongs to that bound's bucket, not the next one up.
        reg = MetricsRegistry()
        h = reg.histogram("repro_edge_seconds", buckets=(1.0, 10.0))
        h.observe(1.0)
        assert h.cumulative() == [1, 1, 1]
        h.observe(10.0)
        assert h.cumulative() == [1, 2, 2]

    def test_above_top_bound_lands_in_inf_bucket_only(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_edge_seconds", buckets=(1.0, 10.0))
        h.observe(10.0000001)
        assert h.cumulative() == [0, 0, 1]

    def test_inf_bucket_line_agrees_with_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_edge_seconds", buckets=(1.0,))
        for v in (0.5, 1.0, 2.0, math.inf):
            h.observe(v)
        assert reg.to_prometheus().splitlines() == [
            "# TYPE repro_edge_seconds histogram",
            'repro_edge_seconds_bucket{le="1"} 2',
            'repro_edge_seconds_bucket{le="+Inf"} 4',
            "repro_edge_seconds_sum +Inf",
            "repro_edge_seconds_count 4",
        ]


class TestMerge:
    def _shard(self, requests: float, phase: float) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.inc("repro_requests_total", requests, architecture="EDGE")
        reg.gauge("repro_phase_seconds", phase="sim").set(phase)
        h = reg.histogram("repro_span_seconds", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        return reg

    def test_counters_sum(self):
        parent = self._shard(3.0, 0.1)
        parent.merge(self._shard(4.0, 0.2))
        assert (
            parent.value("repro_requests_total", architecture="EDGE") == 7.0
        )

    def test_gauges_last_writer_wins(self):
        parent = self._shard(1.0, 0.1)
        parent.merge(self._shard(1.0, 0.9))
        assert parent.value("repro_phase_seconds", phase="sim") == 0.9

    def test_histograms_add_per_bucket(self):
        parent = self._shard(1.0, 0.1)
        parent.merge(self._shard(1.0, 0.1))
        h = parent.histogram("repro_span_seconds", buckets=(1.0, 10.0))
        assert h.cumulative() == [2, 4, 4]
        assert h.sum == pytest.approx(11.0)

    def test_histogram_bucket_mismatch_rejected(self):
        parent = MetricsRegistry()
        parent.histogram("repro_span_seconds", buckets=(1.0, 10.0))
        other = MetricsRegistry()
        other.histogram("repro_span_seconds", buckets=(2.0, 20.0))
        with pytest.raises(ValueError, match="buckets"):
            parent.merge(other)

    def test_merge_order_invisible_for_counters_and_histograms(self):
        shards = [self._shard(float(n), 0.0) for n in range(1, 4)]
        forward = MetricsRegistry()
        for shard in shards:
            forward.merge(shard)
        backward = MetricsRegistry()
        for shard in reversed(shards):
            backward.merge(shard)
        assert forward.to_json() == backward.to_json()

    def test_merge_accepts_snapshot_dict(self):
        parent = MetricsRegistry()
        parent.merge(self._shard(5.0, 0.3).snapshot())
        assert (
            parent.value("repro_requests_total", architecture="EDGE") == 5.0
        )

    def test_type_conflict_rejected_on_merge(self):
        parent = MetricsRegistry()
        parent.counter("repro_thing_total")
        other = MetricsRegistry()
        other.gauge("repro_thing_total").set(1.0)
        with pytest.raises(ValueError):
            parent.merge(other)

    def test_preregistered_help_wins(self):
        parent = MetricsRegistry()
        parent.counter("repro_requests_total", help="parent help")
        shard = MetricsRegistry()
        shard.counter("repro_requests_total", help="shard help").inc(2.0)
        parent.merge(shard)
        families = {
            f["name"]: f for f in parent.snapshot()["metrics"]
        }
        assert families["repro_requests_total"]["help"] == "parent help"

    def test_from_snapshot_roundtrip_is_byte_identical(self):
        reg = self._shard(7.0, 0.4)
        # Exercise the +Inf bucket so the cumulative differencing covers
        # the implicit tail too.
        reg.histogram("repro_span_seconds", buckets=(1.0, 10.0)).observe(
            99.0
        )
        rebuilt = MetricsRegistry.from_snapshot(reg.snapshot())
        assert rebuilt.to_json() == reg.to_json()

    def test_from_snapshot_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            MetricsRegistry.from_snapshot({"schema": "nope", "metrics": []})

    def test_totals_sums_counters_only(self):
        reg = self._shard(2.0, 0.1)
        reg.inc("repro_requests_total", 3.0, architecture="ICN-NR")
        totals = reg.totals()
        assert totals == {"repro_requests_total": 5.0}
        assert "repro_phase_seconds" not in totals
        assert "repro_span_seconds" not in totals


class TestReadBack:
    """``from_json`` and ``check_prometheus``: the writer is the schema."""

    def _document(self) -> dict:
        return json.loads(TestExports()._populated().to_json())

    def _read(self, document) -> MetricsRegistry:
        return MetricsRegistry.from_json(json.dumps(document))

    def test_both_json_layouts_read_back(self):
        reg = TestExports()._populated()
        for text in (reg.to_json(), reg.to_json(indent=None)):
            assert MetricsRegistry.from_json(text).to_json() == reg.to_json()

    def test_family_order_must_be_canonical(self):
        document = self._document()
        document["metrics"].reverse()
        with pytest.raises(ValueError, match=r"snapshot\.metrics\[0\]"):
            self._read(document)

    def test_duplicate_family_rejected(self):
        document = self._document()
        document["metrics"].insert(1, document["metrics"][0])
        with pytest.raises(ValueError, match="re-serialize"):
            self._read(document)

    def test_empty_samples_rejected(self):
        document = self._document()
        document["metrics"][0]["samples"] = []
        with pytest.raises(ValueError, match=r"metrics\[0\]"):
            self._read(document)

    def test_stray_or_mistyped_field_rejected(self):
        document = self._document()
        document["metrics"][1]["samples"][0]["value"] = "7.0"
        with pytest.raises(ValueError, match=r"samples\[0\]\.value"):
            self._read(document)
        document = self._document()
        document["generator"] = "elsewhere"
        with pytest.raises(ValueError, match=r"snapshot\.generator"):
            self._read(document)

    def test_invalid_names_rejected(self):
        document = self._document()
        document["metrics"][0]["name"] = "bad name"
        with pytest.raises(ValueError, match="invalid metric name"):
            self._read(document)
        document = self._document()
        document["metrics"][0]["samples"][0]["labels"] = {"9lives": "x"}
        with pytest.raises(ValueError, match="invalid label name"):
            self._read(document)

    def test_malformed_document_is_a_value_error(self):
        for document in ([], {"schema": REGISTRY_SCHEMA, "metrics": [{}]}):
            with pytest.raises(ValueError):
                self._read(document)
        with pytest.raises(ValueError):
            MetricsRegistry.from_json("{not json")

    def test_prometheus_must_match_byte_for_byte(self):
        reg = MetricsRegistry.from_json(POPULATED_JSON)
        reg.check_prometheus(POPULATED_PROMETHEUS)
        edited = POPULATED_PROMETHEUS.replace(
            'architecture="EDGE"} 7', 'architecture="EDGE"} 8'
        )
        with pytest.raises(ValueError, match="line 4"):
            reg.check_prometheus(edited)
        with pytest.raises(ValueError, match="line 20"):
            reg.check_prometheus(POPULATED_PROMETHEUS + "extra 1\n")

"""Metric registry: counters, gauges, and histograms with exports.

The registry is the single sink every instrumented component writes
into: per-node cache serves/copies/evictions, per-link transfers,
retry/failover outcomes, fault-injection tallies, and phase timings.
Metrics follow the Prometheus data model — a metric *family* has a
name, a type, and help text; each sample within it is distinguished by
a label set — and export in two formats:

* :meth:`MetricsRegistry.snapshot` — a JSON-serializable dict with a
  versioned schema, families sorted by name and samples sorted by
  label values, so the same counters always serialize to the same
  bytes;
* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` / sample lines), also in
  deterministic order.

These two methods are the only definition of their formats, and
:meth:`MetricsRegistry.from_json` and
:meth:`MetricsRegistry.check_prometheus` read them back.

Instrumentation cost when *no* registry is attached is zero: every
producer gates its writes behind a ``None`` check on the sink (the
contract rule ``O501`` enforces in the engine hot loops).
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from itertools import zip_longest
from typing import Iterable, Mapping

#: Version tag of the snapshot schema (bump on breaking field changes).
REGISTRY_SCHEMA = "repro.obs/registry/v1"

#: Default histogram bucket upper bounds (latencies in hop-cost units
#: and wall-clock seconds both fit this decade ladder).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _format_value(value: float) -> str:
    """Prometheus sample rendering: integers without a trailing ``.0``.

    Non-finite values use the Prometheus spellings ``+Inf`` / ``-Inf`` /
    ``NaN`` — ``repr(float("inf"))`` yields ``inf``, which Prometheus
    text-format parsers reject.
    """
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class Counter:
    """A monotonically increasing sample."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount


class Gauge:
    """A sample that can move in either direction (timings, sizes)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = float(value)

    def add(self, amount: float) -> None:
        """Shift the gauge by ``amount`` (accumulating phase timers)."""
        self.value += amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches
    the rest.  ``observe`` is O(log buckets).
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly increasing")
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # + the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[int]:
        """Per-bucket cumulative counts, ending with the total."""
        out: list[int] = []
        running = 0
        for count in self.counts:
            running += count
            out.append(running)
        return out

    def merge_from(self, other: "Histogram") -> None:
        """Add ``other``'s per-bucket counts, sum, and count into this one.

        Both histograms must share the same bucket bounds — merging
        across different bucket ladders would silently misbin counts.
        """
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.bounds} vs {other.bounds}"
            )
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.sum += other.sum
        self.count += other.count


#: One family: metric type, help text, and label-set -> sample object.
_TYPES = ("counter", "gauge", "histogram")


class _Family:
    __slots__ = ("name", "type", "help", "label_names", "samples")

    def __init__(
        self, name: str, type_: str, help_: str, label_names: tuple[str, ...]
    ) -> None:
        self.name = name
        self.type = type_
        self.help = help_
        self.label_names = label_names
        self.samples: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}


class MetricsRegistry:
    """Get-or-create metric store with deterministic exports.

    Families are keyed by metric name; samples within a family by their
    label values.  A metric's type and label names are fixed by its
    first registration — conflicting re-registration raises, which
    catches typos that would otherwise split a counter in two.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    # ------------------------------------------------------------------
    # Get-or-create accessors
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        """The counter sample for ``name`` and ``labels``."""
        sample = self._sample(name, "counter", help, labels, None)
        assert isinstance(sample, Counter)
        return sample

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        """The gauge sample for ``name`` and ``labels``."""
        sample = self._sample(name, "gauge", help, labels, None)
        assert isinstance(sample, Gauge)
        return sample

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        """The histogram sample for ``name`` and ``labels``."""
        sample = self._sample(name, "histogram", help, labels, buckets)
        assert isinstance(sample, Histogram)
        return sample

    def inc(self, name: str, amount: float = 1.0, **labels: object) -> None:
        """Shortcut: increment the counter ``name`` by ``amount``."""
        self.counter(name, **labels).inc(amount)

    def _sample(
        self,
        name: str,
        type_: str,
        help_: str,
        labels: Mapping[str, object],
        buckets: Iterable[float] | None,
    ) -> Counter | Gauge | Histogram:
        family = self._families.get(name)
        label_names = tuple(sorted(labels))
        if family is None:
            _check_name(name)
            for label in label_names:
                if not _LABEL_RE.match(label):
                    raise ValueError(f"invalid label name {label!r}")
            family = _Family(name, type_, help_, label_names)
            self._families[name] = family
        else:
            if family.type != type_:
                raise ValueError(
                    f"metric {name!r} already registered as {family.type}"
                )
            if family.label_names != label_names:
                raise ValueError(
                    f"metric {name!r} uses labels {family.label_names}, "
                    f"got {label_names}"
                )
            if help_ and not family.help:
                family.help = help_
        key = tuple(str(labels[k]) for k in label_names)
        sample = family.samples.get(key)
        if sample is None:
            if type_ == "counter":
                sample = Counter()
            elif type_ == "gauge":
                sample = Gauge()
            else:
                sample = Histogram(
                    buckets if buckets is not None else DEFAULT_BUCKETS
                )
            family.samples[key] = sample
        return sample

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def value(self, name: str, **labels: object) -> float:
        """Current value of a counter/gauge (0.0 when never written)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        key = tuple(
            str(labels[k]) for k in family.label_names if k in labels
        )
        if len(key) != len(family.label_names):
            raise ValueError(
                f"metric {name!r} needs labels {family.label_names}"
            )
        sample = family.samples.get(key)
        if sample is None or isinstance(sample, Histogram):
            return 0.0
        return sample.value

    def names(self) -> list[str]:
        """Registered family names, sorted."""
        return sorted(self._families)

    def totals(self) -> dict[str, float]:
        """Per-family counter totals, summed over every label set.

        Only counter families appear (gauges can move both ways and
        histograms are multi-valued, so a single total would mislead);
        the result is a plain dict ready for a progress heartbeat.
        """
        out: dict[str, float] = {}
        for name in sorted(self._families):
            family = self._families[name]
            if family.type != "counter":
                continue
            out[name] = sum(
                sample.value  # type: ignore[union-attr]
                for sample in family.samples.values()
            )
        return out

    # ------------------------------------------------------------------
    # Merging (sharded collection)
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry | Mapping[str, object]") -> None:
        """Fold another registry (or a snapshot dict) into this one.

        The merge semantics per metric type:

        * **counters** sum — chunked parallel collection totals exactly
          what a serial run would have counted;
        * **gauges** take the incoming value (labeled last-writer per
          shard), so merge order matters for them — callers that need a
          deterministic merged gauge must merge shards in a fixed order;
        * **histograms** add per-bucket counts, sums, and totals (the
          bucket bounds must agree).

        Type or label-name conflicts raise, exactly as conflicting
        re-registration does.  Help text follows first-registration-wins,
        so pre-registering families in the parent pins the merged help.
        """
        if not isinstance(other, MetricsRegistry):
            other = MetricsRegistry.from_snapshot(other)
        for name in sorted(other._families):
            family = other._families[name]
            for key in sorted(family.samples):
                sample = family.samples[key]
                labels = dict(zip(family.label_names, key))
                if isinstance(sample, Counter):
                    self.counter(name, family.help, **labels).inc(
                        sample.value
                    )
                elif isinstance(sample, Gauge):
                    self.gauge(name, family.help, **labels).set(sample.value)
                else:
                    mine = self.histogram(
                        name, family.help, buckets=sample.bounds, **labels
                    )
                    mine.merge_from(sample)

    @classmethod
    def from_snapshot(
        cls, snapshot: Mapping[str, object]
    ) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot` dict.

        The snapshot's cumulative histogram buckets are differenced back
        into per-bucket counts (the ``+Inf`` bucket is ``count`` minus
        the last cumulative value), so
        ``MetricsRegistry.from_snapshot(r.snapshot()).snapshot()`` is
        byte-for-byte ``r.snapshot()`` — the roundtrip that lets worker
        processes ship registries across a process boundary.
        """
        if snapshot.get("schema") != REGISTRY_SCHEMA:
            raise ValueError(
                f"snapshot schema {snapshot.get('schema')!r} != "
                f"{REGISTRY_SCHEMA!r}"
            )
        registry = cls()
        metrics = snapshot.get("metrics")
        if not isinstance(metrics, list):
            raise ValueError("snapshot `metrics` must be a list")
        for family in metrics:
            name = family["name"]
            type_ = family["type"]
            help_ = family.get("help", "")
            if type_ not in _TYPES:
                raise ValueError(f"metric {name!r}: unknown type {type_!r}")
            for entry in family["samples"]:
                labels = dict(entry["labels"])
                if type_ == "counter":
                    registry.counter(name, help_, **labels).inc(
                        float(entry["value"])
                    )
                elif type_ == "gauge":
                    registry.gauge(name, help_, **labels).set(
                        float(entry["value"])
                    )
                else:
                    buckets = [
                        (float(bound), int(cum))
                        for bound, cum in entry["buckets"]
                    ]
                    sample = registry.histogram(
                        name,
                        help_,
                        buckets=[bound for bound, _ in buckets],
                        **labels,
                    )
                    previous = 0
                    for index, (_bound, cum) in enumerate(buckets):
                        sample.counts[index] += cum - previous
                        previous = cum
                    sample.counts[-1] += int(entry["count"]) - previous
                    sample.sum += float(entry["sum"])
                    sample.count += int(entry["count"])
        return registry

    @classmethod
    def from_json(cls, text: str) -> "MetricsRegistry":
        """Read back a snapshot document (``registry.json`` and kin).

        The document is valid when the registry it rebuilds snapshots
        to the same document, compared as canonical JSON so that a NaN
        gauge compares equal.  Names and labels pass registration's
        checks; out-of-order or duplicate families, empty sample lists
        and stray or mistyped fields fail to re-serialize.  Any
        malformed document raises ``ValueError`` naming the field.
        """
        document = json.loads(text)
        try:
            registry = cls.from_snapshot(document)
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed registry snapshot: {exc!r}") from exc
        rebuilt = registry.snapshot()
        if _canonical(rebuilt) != _canonical(document):
            where = _first_difference(document, rebuilt, "snapshot")
            raise ValueError(f"{where} does not re-serialize to itself")
        return registry

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """The registry as a schema-versioned, deterministic dict."""
        metrics: list[dict[str, object]] = []
        for name in sorted(self._families):
            family = self._families[name]
            samples: list[dict[str, object]] = []
            for key in sorted(family.samples):
                sample = family.samples[key]
                labels = dict(zip(family.label_names, key))
                if isinstance(sample, Histogram):
                    samples.append(
                        {
                            "labels": labels,
                            "buckets": [
                                [bound, cum]
                                for bound, cum in zip(
                                    sample.bounds, sample.cumulative()
                                )
                            ],
                            "sum": sample.sum,
                            "count": sample.count,
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": sample.value})
            metrics.append(
                {
                    "name": family.name,
                    "type": family.type,
                    "help": family.help,
                    "samples": samples,
                }
            )
        return {"schema": REGISTRY_SCHEMA, "metrics": metrics}

    def to_json(self, indent: int | None = 2) -> str:
        """The snapshot as canonical JSON text."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.type}")
            for key in sorted(family.samples):
                sample = family.samples[key]
                pairs = list(zip(family.label_names, key))
                if isinstance(sample, Histogram):
                    cumulative = sample.cumulative()
                    for bound, cum in zip(sample.bounds, cumulative):
                        bucket_pairs = pairs + [("le", _format_value(bound))]
                        lines.append(
                            f"{name}_bucket{_render_labels(bucket_pairs)} {cum}"
                        )
                    inf_pairs = pairs + [("le", "+Inf")]
                    lines.append(
                        f"{name}_bucket{_render_labels(inf_pairs)} "
                        f"{cumulative[-1]}"
                    )
                    lines.append(
                        f"{name}_sum{_render_labels(pairs)} "
                        f"{_format_value(sample.sum)}"
                    )
                    lines.append(
                        f"{name}_count{_render_labels(pairs)} {sample.count}"
                    )
                else:
                    lines.append(
                        f"{name}{_render_labels(pairs)} "
                        f"{_format_value(sample.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def check_prometheus(self, text: str) -> None:
        """Check ``text`` is exactly :meth:`to_prometheus`'s output.

        Raises ``ValueError`` naming the first line that differs.
        """
        expected = self.to_prometheus().splitlines(keepends=True)
        for lineno, (got, want) in enumerate(
            zip_longest(text.splitlines(keepends=True), expected), start=1
        ):
            if got != want:
                raise ValueError(
                    f"line {lineno}: {got!r} is not the exported {want!r}"
                )


def _canonical(document: object) -> str:
    return json.dumps(document, sort_keys=True)


def _first_difference(got: object, want: object, where: str) -> str:
    """The path of the first field where ``got`` and ``want`` differ."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            if _canonical(got.get(key)) != _canonical(want.get(key)):
                return _first_difference(
                    got.get(key), want.get(key), f"{where}.{key}"
                )
    if isinstance(got, list) and isinstance(want, list):
        for index, (mine, theirs) in enumerate(zip(got, want)):
            if _canonical(mine) != _canonical(theirs):
                return _first_difference(mine, theirs, f"{where}[{index}]")
    return where


def _render_labels(pairs: list[tuple[str, str]]) -> str:
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + body + "}"

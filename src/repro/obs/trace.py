"""Sampled per-request trace records (reproducible JSONL).

A trace answers the question the aggregate :class:`SimulationResult`
cannot: *which* node served request ``i``, over which hop cost, and
whether a failure was routed around on the way.  Records are one JSON
object per line with a versioned field set (see :data:`TRACE_VERSION`):

* a ``header`` record opens every run — architecture, routing mode,
  request count, warmup boundary, and the sampler's ``(seed, rate)``;
* each sampled request emits a ``request`` record — request index,
  arrival PoP/leaf, object id, serving node, serving origin PoP (null
  for cache hits), hop cost, object size, and the cooperation /
  failure-fallback annotations.

Sampling is *content-addressed*, not stream-addressed: the decision
for request ``i`` is a pure function of ``(seed, i)`` (SHA-256 mapped
to [0, 1)), so both simulation engines — which interleave work very
differently — sample exactly the same requests, and repeated seeded
runs produce byte-identical trace files.  Serialization is canonical
(sorted keys, compact separators) for the same reason.

:class:`TraceWriter` is the only definition of the format, and
:func:`read_request_trace` reads a file back against it: each line must
carry the writer's version, kind and exact field set, in the bytes the
writer would have written.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import IO

#: Trace schema version; bump on any breaking field change.
TRACE_VERSION = 1

#: The keys :meth:`TraceWriter.write_header` and
#: :meth:`TraceWriter.emit_request` write, by record kind.
_FIELDS = {
    "header": frozenset({
        "v", "kind", "architecture", "routing", "requests",
        "first_measured", "sample_rate", "sample_seed",
    }),
    "request": frozenset({
        "v", "kind", "i", "pop", "leaf", "object", "serving", "origin",
        "cost", "size", "coop", "fallback",
    }),
}

_HASH_DENOMINATOR = float(2**64)


class TraceSampler:
    """Deterministic per-request sampling decisions.

    ``rate`` is the fraction of requests traced; ``seed`` keys the
    hash so different seeds select different (but each reproducible)
    subsets.  ``wants(i)`` is branch-cheap at the extremes: rate 1.0
    always samples and rate 0.0 never does, without hashing.
    """

    __slots__ = ("rate", "seed", "_always", "_never", "_prefix")

    def __init__(self, rate: float = 1.0, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.seed = seed
        self._always = rate >= 1.0
        self._never = rate <= 0.0
        self._prefix = f"{seed}:".encode()

    def wants(self, index: int) -> bool:
        """Whether request ``index`` is in the sampled subset."""
        if self._always:
            return True
        if self._never:
            return False
        digest = hashlib.sha256(self._prefix + str(index).encode()).digest()
        draw = int.from_bytes(digest[:8], "big") / _HASH_DENOMINATOR
        return draw < self.rate


class TraceWriter:
    """Writes schema-versioned trace records as JSONL.

    Construct with a path (opened lazily on first write) or any
    writable text file object.  One writer may hold several runs, each
    opened by :meth:`write_header`; ``emitted``/``headers`` count what
    was written.  Use as a context manager or call :meth:`close`.
    """

    def __init__(
        self,
        destination: str | Path | IO[str],
        sampler: TraceSampler | None = None,
    ) -> None:
        self.sampler = sampler if sampler is not None else TraceSampler()
        self._path: Path | None = None
        self._fh: IO[str] | None = None
        if isinstance(destination, (str, Path)):
            self._path = Path(destination)
        else:
            self._fh = destination
        self.emitted = 0
        self.headers = 0

    # The engines read this bound method into a local for the hot loop.
    def wants(self, index: int) -> bool:
        """Delegate to the sampler (hot-loop entry point)."""
        return self.sampler.wants(index)

    def _file(self) -> IO[str]:
        if self._fh is None:
            assert self._path is not None
            self._fh = open(self._path, "w", encoding="utf-8")
        return self._fh

    def _write(self, record: dict[str, object]) -> None:
        self._file().write(_canonical_line(record))

    def write_header(
        self,
        architecture: str,
        routing: str,
        num_requests: int,
        first_measured: int,
    ) -> None:
        """Open one run: write the run-description header record."""
        self._write(
            {
                "v": TRACE_VERSION,
                "kind": "header",
                "architecture": architecture,
                "routing": routing,
                "requests": num_requests,
                "first_measured": first_measured,
                "sample_rate": self.sampler.rate,
                "sample_seed": self.sampler.seed,
            }
        )
        self.headers += 1

    def emit_request(
        self,
        index: int,
        pop: int,
        leaf: int,
        obj: int,
        serving: int,
        origin_pop: int | None,
        cost: float,
        size: float,
        coop: bool,
        fallback: bool,
    ) -> None:
        """Write one sampled request record.

        ``origin_pop`` is the serving origin (None for cache hits);
        ``cost`` is the hop-cost latency charged to the request.  The
        caller is responsible for the sampling decision (``wants``).
        """
        self._write(
            {
                "v": TRACE_VERSION,
                "kind": "request",
                "i": index,
                "pop": pop,
                "leaf": leaf,
                "object": obj,
                "serving": serving,
                "origin": origin_pop,
                "cost": float(cost),
                "size": float(size),
                "coop": bool(coop),
                "fallback": bool(fallback),
            }
        )
        self.emitted += 1

    def flush(self) -> None:
        """Flush the underlying file (no-op before the first write)."""
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        """Close the file if this writer opened it."""
        if self._fh is not None:
            self._fh.flush()
            if self._path is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _reject_constant(name: str) -> object:
    raise ValueError(f"non-finite number {name}")


# One encoder and one decoder for every line: ``json.dumps`` and
# ``json.loads`` build a new one per call when given options.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _canonical_line(record: dict[str, object]) -> str:
    return _ENCODER.encode(record) + "\n"


def read_request_trace(path: str | Path) -> tuple[int, int]:
    """Read a trace file back; returns its (header, request) counts.

    Every line must be a record :class:`TraceWriter` could have written:
    the writer's version, a known kind, exactly that kind's fields,
    finite numbers, and canonical bytes (sorted keys, compact
    separators, one newline).  The file must open with a header.  Any
    other file raises ``ValueError`` naming the offending line.
    """
    counts = {"header": 0, "request": 0}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            where = f"line {lineno}"
            try:
                record = _DECODER.decode(line)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{where}: not a JSON object")
            version = record.get("v")
            if type(version) is not int or version != TRACE_VERSION:
                raise ValueError(
                    f"{where}: version {version!r} != {TRACE_VERSION}"
                )
            kind = record.get("kind")
            fields = _FIELDS.get(kind) if isinstance(kind, str) else None
            if fields is None:
                raise ValueError(f"{where}: unknown record kind {kind!r}")
            if record.keys() != fields:
                raise ValueError(
                    f"{where}: {kind} record missing fields "
                    f"{sorted(fields - set(record))}, unexpected fields "
                    f"{sorted(set(record) - fields)}"
                )
            if _canonical_line(record) != line:
                raise ValueError(f"{where}: not in canonical form")
            if kind == "request" and counts["header"] == 0:
                raise ValueError(f"{where}: request record before any header")
            counts[kind] += 1
    if counts["header"] == 0:
        raise ValueError("trace contains no header record")
    return counts["header"], counts["request"]

"""Live progress heartbeats for long-running sweeps.

A multi-hour sweep must be observable *while it runs*, not only after:
:class:`ProgressReporter` maintains one JSON heartbeat file that always
parses — every update writes a temporary file in the same directory and
``os.replace``s it over the target, so a reader (``python -m repro.obs
watch``, a dashboard, a shell loop) never sees a torn write.

The heartbeat carries the sweep's control-plane state: points done /
failed / in flight / retried, the merged counter totals from the
sharded registries, wall-clock elapsed, and a naive rate-based ETA.  It
is versioned (:data:`PROGRESS_SCHEMA`).  :meth:`ProgressReporter.snapshot`
defines the payload, and :func:`read_heartbeat`, which reads a file
another process writes, checks the schema tag, the key set and the
point counts before anything renders it.

The zero-overhead contract applies as everywhere in ``repro.obs``:
``progress=None`` (the default everywhere a reporter is accepted) must
be bit-identical to pre-heartbeat behaviour — lint rule ``O502`` pins
the gating in the sweep hot loops.  Updates are cadence-batched on
*completion counts* (every ``every``-th finished point, plus the final
state), so a million-point sweep does not fsync a million heartbeats.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Mapping

#: Version tag of the heartbeat schema (bump on breaking field changes).
PROGRESS_SCHEMA = "repro.obs/progress/v1"

#: The point counts a heartbeat carries, in :meth:`snapshot` order.
_POINT_COUNTS = ("total", "done", "failed", "in_flight", "retried")

#: Every key :meth:`ProgressReporter.snapshot` writes.
_KEYS = frozenset(
    {"schema", *_POINT_COUNTS, "elapsed_seconds", "eta_seconds", "counters"}
)


class ProgressReporter:
    """Atomically maintained progress heartbeat for one run.

    ``path`` is the heartbeat file; ``total`` the number of points the
    run will attempt; ``every`` the completion-count cadence (1 writes
    on every completion; N writes on every N-th).  ``clock`` is
    injectable for tests — it is *wall* time and feeds only the
    ``elapsed_seconds``/``eta_seconds`` fields, never a simulated
    number.
    """

    def __init__(
        self,
        path: str | Path,
        total: int = 0,
        every: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if every < 1:
            raise ValueError("update cadence `every` must be >= 1")
        self.path = Path(path)
        self.total = int(total)
        self.every = every
        self._clock = clock
        self._start = clock()
        self.done = 0
        self.failed = 0
        self.in_flight = 0
        self.retried = 0
        self.counters: dict[str, float] = {}
        self.writes = 0
        self._last_written = -1

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def start(self, total: int | None = None) -> None:
        """Write the initial heartbeat (optionally fixing ``total``)."""
        if total is not None:
            self.total = int(total)
        self._write()

    def update(
        self,
        done: int,
        failed: int = 0,
        in_flight: int = 0,
        retried: int = 0,
        counters: Mapping[str, float] | None = None,
        force: bool = False,
    ) -> bool:
        """Record progress; write the heartbeat when the cadence hits.

        Returns whether a write happened.  ``counters`` replaces the
        exported counter totals wholesale (pass
        ``registry.totals()``).
        """
        self.done = int(done)
        self.failed = int(failed)
        self.in_flight = int(in_flight)
        self.retried = int(retried)
        if counters is not None:
            self.counters = {k: float(v) for k, v in counters.items()}
        finished = self.done + self.failed
        if not force and finished != 0 and finished % self.every != 0:
            return False
        if not force and finished == self._last_written:
            return False
        self._write()
        return True

    def finish(self) -> None:
        """Write the final heartbeat unconditionally."""
        self._write()

    def _write(self) -> None:
        payload = self.snapshot()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, self.path)
        self.writes += 1
        self._last_written = self.done + self.failed

    def snapshot(self) -> dict[str, object]:
        """The heartbeat payload (what ``_write`` serializes)."""
        elapsed = max(0.0, self._clock() - self._start)
        finished = self.done + self.failed
        eta: float | None = None
        if 0 < finished and self.total > finished and elapsed > 0:
            eta = elapsed / finished * (self.total - finished)
        return {
            "schema": PROGRESS_SCHEMA,
            "total": self.total,
            "done": self.done,
            "failed": self.failed,
            "in_flight": self.in_flight,
            "retried": self.retried,
            "elapsed_seconds": round(elapsed, 3),
            "eta_seconds": None if eta is None else round(eta, 3),
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
        }


def read_heartbeat(path: str | Path) -> dict[str, object]:
    """Load one heartbeat file and check what a reader relies on.

    The schema tag, exactly :meth:`ProgressReporter.snapshot`'s keys,
    non-negative integer point counts, and ``done + failed <= total``;
    anything else raises ``ValueError`` naming the field.
    """
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("heartbeat: not a JSON object")
    if payload.get("schema") != PROGRESS_SCHEMA:
        raise ValueError(
            f"heartbeat: schema {payload.get('schema')!r} != "
            f"{PROGRESS_SCHEMA!r}"
        )
    if set(payload) != _KEYS:
        raise ValueError(
            f"heartbeat: missing fields {sorted(_KEYS - set(payload))}, "
            f"unexpected fields {sorted(set(payload) - _KEYS)}"
        )
    for field in _POINT_COUNTS:
        value = payload[field]
        if type(value) is not int or value < 0:
            raise ValueError(f"heartbeat: {field} must be a non-negative int")
    if payload["done"] + payload["failed"] > payload["total"]:
        raise ValueError("heartbeat: done + failed exceeds total")
    return payload


def render_heartbeat(payload: Mapping[str, object]) -> str:
    """A terminal-friendly rendering of one heartbeat payload."""
    total = int(payload["total"])  # type: ignore[arg-type]
    done = int(payload["done"])  # type: ignore[arg-type]
    failed = int(payload["failed"])  # type: ignore[arg-type]
    finished = done + failed
    width = 30
    filled = (
        min(width, round(width * finished / total)) if total > 0 else 0
    )
    bar = "#" * filled + "-" * (width - filled)
    percent = f"{100.0 * finished / total:5.1f}%" if total > 0 else "  n/a"
    eta = payload.get("eta_seconds")
    lines = [
        f"[{bar}] {percent}  {finished}/{total} points",
        (
            f"  done {done}  failed {failed}"
            f"  in-flight {payload['in_flight']}"
            f"  retried {payload['retried']}"
        ),
        (
            f"  elapsed {payload['elapsed_seconds']}s"
            + (f"  eta {eta}s" if eta is not None else "")
        ),
    ]
    counters = payload.get("counters")
    if isinstance(counters, Mapping) and counters:
        lines.append("  counters:")
        for name in sorted(counters):
            lines.append(f"    {name} = {counters[name]}")
    return "\n".join(lines)

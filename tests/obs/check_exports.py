"""Standalone checker for a directory of observability exports.

CI runs a traced smoke simulation (``python -m repro.obs smoke``) and
then this script against the output directory::

    python tests/obs/check_exports.py /tmp/obs-smoke

It reads every artifact back through the module that wrote it, in a
process of its own, so a writer bug that slips past the writer's own
read-back still fails CI.  Each format's writer is its only
definition: ``registry.json`` must re-serialize to itself
(:meth:`MetricsRegistry.from_json`), ``metrics.prom`` must be exactly
that registry's Prometheus rendering, so an edited sample value fails,
and ``trace.jsonl`` must hold only records the trace writer could have
written (:func:`read_request_trace`), at least one of each kind.  Exit
code 0 on success, 1 with a diagnostic on any failure.

The same entry point also understands ``sweep-smoke`` output
directories (``registry.json`` + ``registry.deterministic.json`` +
``spans.jsonl`` + ``heartbeat.json``): the mode is detected from which
artifacts are present.  For sweeps it reads back both snapshots, the
span file (:func:`read_spans`) and the heartbeat
(:func:`read_heartbeat`), and additionally checks that the
deterministic snapshot really is the full registry minus the
wall-clock families, that the span file has exactly one root, and that
the final heartbeat accounts for every point.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.core.sweep import WALLCLOCK_METRICS
from repro.obs import (
    MetricsRegistry,
    read_heartbeat,
    read_request_trace,
    read_spans,
)


def _read_registry(path: Path) -> MetricsRegistry:
    return MetricsRegistry.from_json(path.read_text(encoding="utf-8"))


def check_exports(out_dir: Path) -> list[str]:
    """Check one smoke export directory; returns findings."""
    findings: list[str] = []
    registry_path = out_dir / "registry.json"
    prom_path = out_dir / "metrics.prom"
    trace_path = out_dir / "trace.jsonl"
    for path in (registry_path, prom_path, trace_path):
        if not path.is_file():
            findings.append(f"missing artifact: {path.name}")
    if findings:
        return findings

    try:
        registry = _read_registry(registry_path)
    except ValueError as exc:
        findings.append(f"registry.json: {exc}")
    else:
        try:
            registry.check_prometheus(prom_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            findings.append(f"metrics.prom: {exc}")
    try:
        _, requests = read_request_trace(trace_path)
        if requests == 0:
            findings.append("trace.jsonl: no sampled request records")
    except ValueError as exc:
        findings.append(f"trace.jsonl: {exc}")
    return findings


def check_sweep_exports(out_dir: Path) -> list[str]:
    """Check one sweep-smoke export directory; returns findings."""
    findings: list[str] = []
    registry_path = out_dir / "registry.json"
    deterministic_path = out_dir / "registry.deterministic.json"
    spans_path = out_dir / "spans.jsonl"
    heartbeat_path = out_dir / "heartbeat.json"
    paths = (registry_path, deterministic_path, spans_path, heartbeat_path)
    for path in paths:
        if not path.is_file():
            findings.append(f"missing artifact: {path.name}")
    if findings:
        return findings

    full = deterministic = None
    try:
        full = _read_registry(registry_path)
    except ValueError as exc:
        findings.append(f"registry.json: {exc}")
    try:
        deterministic = _read_registry(deterministic_path)
    except ValueError as exc:
        findings.append(f"registry.deterministic.json: {exc}")
    if full is not None and deterministic is not None:
        stripped = set(deterministic.names())
        if stripped & WALLCLOCK_METRICS:
            findings.append(
                "registry.deterministic.json: wall-clock families leaked "
                "into the deterministic snapshot: "
                f"{sorted(stripped & WALLCLOCK_METRICS)}"
            )
        if stripped != set(full.names()) - WALLCLOCK_METRICS:
            findings.append(
                "registry.deterministic.json: families are not "
                "registry.json minus the wall-clock set"
            )

    try:
        roots = [r for r in read_spans(spans_path) if r["parent"] is None]
        if len(roots) != 1:
            findings.append(
                "spans.jsonl: expected exactly 1 root span, "
                f"found {len(roots)}"
            )
    except ValueError as exc:
        findings.append(f"spans.jsonl: {exc}")

    try:
        heartbeat = read_heartbeat(heartbeat_path)
        total = heartbeat["total"]
        finished = heartbeat["done"] + heartbeat["failed"]
        if total == 0:
            findings.append("heartbeat.json: sweep had no points")
        elif finished != total:
            findings.append(
                "heartbeat.json: final heartbeat accounts for "
                f"{finished}/{total} points"
            )
        if heartbeat["in_flight"] != 0:
            findings.append(
                "heartbeat.json: final heartbeat still reports "
                f"{heartbeat['in_flight']} point(s) in flight"
            )
    except ValueError as exc:
        findings.append(f"heartbeat.json: {exc}")
    return findings


def main(argv: list[str]) -> int:
    """CLI wrapper; prints findings and returns the exit code."""
    if len(argv) != 1:
        print("usage: check_exports.py <export-dir>", file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    if (out_dir / "spans.jsonl").is_file() or (
        out_dir / "heartbeat.json"
    ).is_file():
        findings = check_sweep_exports(out_dir)
        flavour = "sweep exports"
    else:
        findings = check_exports(out_dir)
        flavour = "exports"
    if findings:
        for finding in findings:
            print(f"FAIL: {finding}", file=sys.stderr)
        return 1
    print(f"{flavour} in {argv[0]} read back through their writers")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

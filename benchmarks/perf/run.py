#!/usr/bin/env python3
"""The repository benchmark: four simulator workloads, end to end and per layer.

Run from the repository root (no install and no ``PYTHONPATH`` needed)::

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--scale X]

Every workload runs in a fresh child process, so ``ru_maxrss`` and the
CPU clocks describe that workload alone.  An untraced run (the default)

1. replays a reduced twin (about 1% of the requests; one shard for the
   sweep) under both the reference and the fast engine and requires
   identical result fingerprints;
2. until ``--seconds`` have elapsed (at least three rounds), moves to
   the allowed core that runs a fixed probe loop fastest, builds the
   workload's inputs from ``--seed`` three times and runs one *pass* of
   the workload on the last build, all in the child process;
3. checks the accounting of every result and that every pass reproduces
   the first one, reports the median build time as ``setup_s``, and
   estimates a pass's time as the sum of each run's median time over
   the passes.  Each build and each run is scaled to a nominal host
   speed by probe loops just before and after it (see ``HostProbe``).

``--trace 1`` measures the layer ledger instead: one untraced pass, the
same pass with spans around every call into the simulator, and the
ablation ladder (drain, drain plus ``tolist``, zero-request runs, frozen
runs with popularity-preloaded caches, runs with an ``Observer``), plus
per-operation microbenchmarks of the fast cache structs.  Spans are kept
in memory and written to ``results/trace-<workload>.jsonl`` beside this
file at exit.

Each metric is printed as ``workload metric value unit n=samples``; a JSON
report lands in ``results/report.json``; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is non-zero when any simulation run
raised or broke a check.  README.md beside this file explains the
metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(
        f"run.py: simulator sources not found under {SRC}; "
        "run the benchmark from a full checkout"
    )
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.cache.budget import node_budgets  # noqa: E402
from repro.cache.fast import FastFIFO, FastLFU, FastLRU  # noqa: E402
from repro.core import (  # noqa: E402
    BASELINE_ARCHITECTURES,
    EDGE,
    EDGE_COOP,
    ICN_NR,
    ICN_SP,
    ExperimentConfig,
    Simulator,
    SweepPoint,
    build_network,
    build_streaming_workload,
    build_workload,
    hop_costs,
    merge_sharded_results,
    run_streamed_experiment,
    run_sweep,
    shard_points,
    simulate_no_cache,
)
from repro.obs import Observer  # noqa: E402
from repro.topology import TOPOLOGY_NAMES, AccessTree, Network, topology  # noqa: E402
from repro.workload import region_object_stream  # noqa: E402
from repro.workload.stream import StreamingWorkload, pop_shard, stream_workload  # noqa: E402

RESULTS = Path(__file__).resolve().parent / "results"

# --- Workload sizes at --scale 1; one pass takes 2.5-4.5 s on an
# uncontended core of the calibration host and up to twice that on a
# contended one, so a 26 s timed phase holds its three passes or more.
#: Figure 6: requests per access-tree leaf (the paper benches use 400).
FIG6_PER_LEAF = 20
#: Figure 6: requests per catalog object, as in the paper benches.
FIG6_REQUESTS_PER_OBJECT = 200
#: Full-size Asia trace request count (Table 2), for scale conversion.
ASIA_REQUESTS = 1_800_000
REPLAY_OBJECTS = 50_000
REPLAY_CHUNK = 1 << 18
REPLAY_SP_REQUESTS = 500_000
REPLAY_EDGE_REQUESTS = 750_000
SWEEP_REQUESTS = 200_000
SWEEP_OBJECTS = 10_000
SWEEP_SHARDS = 8
#: Pool size of the traced run's parallel sweep; timed passes run the
#: shards one after another (see ``SweepBench``).
SWEEP_WORKERS = 2
SWEEP_ARCHS = (ICN_NR, EDGE)

# --- Measurement protocol.
#: Set-up builds before each pass; ``setup_s`` is the median of them all.
SETUP_REPEATS = 3
MIN_PASSES = 3
#: Share of the requests the reference-vs-fast twin replays.
GATE_SHARE = 0.01
#: Cache operations per policy in the traced microbenchmark.
MICROBENCH_OPS = 300_000
#: Cache capacity of the microbenchmark, as a share of the catalog.
MICROBENCH_CAPACITY = 0.05
#: A workload's child is killed, and counted as failed, after this long.
CHILD_TIMEOUT_S = 170
#: Host-speed probe (see ``HostProbe``): loops per probe (the fastest
#: counts), and the loop's time on an uncontended core of the
#: calibration host, which only sets the unit of the correction.
PROBE_LOOPS = 2
PROBE_NOMINAL_S = 0.0035
#: How closely timed work slows down with the probe loop, as a log-log
#: slope.  Fitted on the calibration host to each workload's 20
#: calibration runs, twice: 0.71-0.97 for a pass (highest for
#: fig6-trace's many short runs) and 0.46-0.86 for set-up (lowest for
#: the numpy stream prepass).  Between a quiet and a busy hour (the
#: probe loop 1.8x slower), the median time of a run or a build scaled
#: with 0.75 moved by 0.88-1.06x, against 1.33-1.60x unscaled.
ELASTICITY = 0.75

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "sim_rps": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_us_per_req": "us",
}

#: Per-layer metrics (traced runs): name -> unit.  A layer the workload
#: does not exercise reads 0.
PER_LAYER = {
    "workload.prepass_s": "s",
    "workload.chunk_s": "s",
    "workload.tolist_s": "s",
    "topology.build_s": "s",
    "core.fixed_ms_per_run": "ms",
    "core.no_cache_s": "s",
    "core.route_s": "s",
    "cache.insert_s": "s",
    "cache.lru.hit_ns": "ns",
    "cache.lru.insert_ns": "ns",
    "cache.lfu.hit_ns": "ns",
    "cache.lfu.insert_ns": "ns",
    "cache.fifo.hit_ns": "ns",
    "cache.fifo.insert_ns": "ns",
    "cache.hit_ratio": "ratio",
    "cache.copies": "count",
    "cache.evictions": "count",
    "cache.useful_copy_ratio": "ratio",
    "obs.observer_s": "s",
    "sweep.speedup": "x",
    "sweep.overhead_s": "s",
    "sweep.merge_ms": "ms",
    "sweep.shard_cost_s": "s",
    "bench.pass_s": "s",
    "bench.residual_s": "s",
    "bench.trace_overhead_frac": "ratio",
}

#: Layers whose self-times make up a pass of the timed phase.  The
#: sweep also pays a network build and a stream prepass per shard, its
#: observer, and the merge.
TIMED_LAYERS = (
    "workload.chunk_s",
    "workload.tolist_s",
    "core.fixed_s",
    "core.no_cache_s",
    "core.route_s",
    "cache.insert_s",
)
SWEEP_TIMED_LAYERS = (
    "topology.build_s", "workload.prepass_s", *TIMED_LAYERS, "obs.observer_s",
    "sweep.merge_s",
)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
class Tracer:
    """In-memory spans recorded around calls into the simulator.

    A span records its name, start and end (seconds since the tracer was
    made), its parent span and the workload.  ``repro.obs.SpanTracker``
    deliberately carries no wall-clock values, so the benchmark keeps
    its own.  A disabled tracer records nothing.
    """

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.records: list[dict] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs: object):
        if not self.enabled:
            yield None
            return
        record = {
            "id": len(self.records),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "workload": self.workload,
            "start": time.perf_counter() - self._origin,
            "end": None,
            "attrs": attrs,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def total(self, name: str, since: int = 0) -> float:
        """Summed duration of the spans called ``name`` (from record ``since``)."""
        return sum(duration(r) for r in self.records[since:] if r["name"] == name)

    def children_total(self, parent: dict, name: str) -> float:
        """Summed duration of ``parent``'s direct children called ``name``."""
        return sum(
            duration(r)
            for r in self.records[parent["id"] + 1:]
            if r["parent"] == parent["id"] and r["name"] == name
        )

    def write(self, path: Path) -> None:
        with path.open("w") as out:
            for record in self.records:
                out.write(json.dumps(record, sort_keys=True) + "\n")


UNTRACED = Tracer("", enabled=False)


def duration(record: dict) -> float:
    return record["end"] - record["start"]


def timed_chunks(workload, tracer: Tracer) -> StreamingWorkload:
    """The same stream, with a ``workload.chunk`` span around each ``next()``."""

    def factory():
        chunks = workload.chunks()
        while True:
            with tracer.span("workload.chunk"):
                chunk = next(chunks, None)
            if chunk is None:
                return
            yield chunk

    return StreamingWorkload(
        num_objects=workload.num_objects,
        sizes=workload.sizes,
        origins=workload.origins,
        chunk_factory=factory,
        num_requests=workload.num_requests,
    )


def empty_like(workload) -> StreamingWorkload:
    """A zero-request stream over the same object tables."""
    return StreamingWorkload(
        num_objects=workload.num_objects,
        sizes=workload.sizes,
        origins=workload.origins,
        chunk_factory=lambda: iter(()),
        num_requests=0,
    )


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------
def probe_loop() -> None:
    """A fixed pure-Python LRU churn: benchmark code no change to the
    simulator can speed up or slow down."""
    objects = 50_000
    member = bytearray(objects)
    order: dict[int, None] = {}
    state = 1
    for _ in range(8_000):
        state = state * 48271 % 2147483647
        obj = state % objects if state & 1 else state % 64
        if member[obj]:
            del order[obj]
            order[obj] = None
            continue
        member[obj] = 1
        order[obj] = None
        if len(order) > objects // 20:
            victim = next(iter(order))
            del order[victim]
            member[victim] = 0


class HostProbe:
    """How fast this process's core runs Python right now.

    Each virtual core of a shared host flips, independently of the
    other and every 1-20 s, between full speed and a contended state
    1.4-1.8x slower for this loop, and the share of slow time drifts
    over minutes, so raw timings of a run depend on when it ran.  The
    probe keeps the process on one core (``settle``, which picks the
    fastest allowed core) and times the loop on it just before and just
    after each timed unit; ``slowdown`` turns the two into the factor by
    which the host slowed that unit.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.samples: list[float] = []

    def speed(self) -> float:
        """Seconds of the fastest of ``PROBE_LOOPS`` loops on this core."""
        best = float("inf")
        for _ in range(PROBE_LOOPS):
            start = time.perf_counter()
            probe_loop()
            best = min(best, time.perf_counter() - start)
        self.samples.append(best)
        return best

    def settle(self) -> None:
        """Pin this process to the allowed core that runs the loop fastest."""
        if len(self.cpus) < 2:
            return
        speeds = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speeds[cpu] = self.speed()
        os.sched_setaffinity(0, {min(speeds, key=speeds.get)})

    def slowdown(self, before: float) -> float:
        """The host's slowdown of a unit timed between ``before`` and now."""
        return ((before * self.speed()) ** 0.5 / PROBE_NOMINAL_S) ** ELASTICITY


# ---------------------------------------------------------------------------
# Results and checks
# ---------------------------------------------------------------------------
@dataclass
class Item:
    """One simulation run's outcome and the measured count it must report."""

    key: str
    result: object
    expected: int
    error: str | None = None


@dataclass
class Pass:
    """One pass of a workload: its runs, simulated requests and timings.

    ``timings`` maps each separately timed part of the pass (a run, or
    a shard of the sweep and its merge) to its wall seconds, CPU seconds
    and the host's slowdown, which a ``probe`` measures around it (1
    without one).
    """

    items: list[Item] = field(default_factory=list)
    requests: int = 0
    timings: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    observer: Observer | None = None
    probe: HostProbe | None = None


def cpu_seconds() -> float:
    """CPU time of this process and of its reaped children (sweep workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@contextmanager
def stopwatch(into: Pass, key: str):
    """Time one unit of a pass, between two probes of the host if it has one."""
    before = into.probe.speed() if into.probe else None
    wall, cpu = time.perf_counter(), cpu_seconds()
    try:
        yield
    finally:
        wall, cpu = time.perf_counter() - wall, cpu_seconds() - cpu
        slowdown = into.probe.slowdown(before) if into.probe else 1.0
        into.timings[key] = (wall, cpu, slowdown)


def fingerprint(result) -> str:
    digest = hashlib.sha256(
        repr(
            (
                result.architecture,
                result.num_requests,
                result.total_latency,
                result.max_link_transfers,
                result.total_transfers,
                result.max_origin_load,
                result.total_origin_load,
                result.cache_served,
                result.coop_served,
                result.fallback_served,
            )
        ).encode()
    )
    digest.update(np.ascontiguousarray(result.link_transfers).tobytes())
    digest.update(np.ascontiguousarray(result.origin_serves).tobytes())
    return digest.hexdigest()


def problem(item: Item) -> str | None:
    """Why a run failed, or None when it raised nothing and adds up."""
    if item.error is not None:
        return item.error
    r = item.result
    served = r.cache_served + r.coop_served + r.total_origin_load
    if served != r.num_requests:
        return (
            f"served {served} (cache {r.cache_served} + coop {r.coop_served} "
            f"+ origin {r.total_origin_load}) != {r.num_requests} requests"
        )
    if r.num_requests != item.expected:
        return f"measured {r.num_requests} requests, expected {item.expected}"
    return None


def digest_of(items: list[Item]) -> str:
    digest = hashlib.sha256()
    for item in items:
        if item.result is not None:
            digest.update(f"{item.key} {fingerprint(item.result)}\n".encode())
    return digest.hexdigest()


def experiment_items(prefix: str, result, expected: int) -> list[Item]:
    return [Item(f"{prefix}/NO-CACHE", result.baseline, expected)] + [
        Item(f"{prefix}/{name}", r, expected) for name, r in result.results.items()
    ]


# ---------------------------------------------------------------------------
# Serial workloads: worlds replayed one run at a time in this process
# ---------------------------------------------------------------------------
@dataclass
class World:
    """One network and request stream, and the runs a pass makes over it."""

    label: str
    network: Network
    workload: object
    costs: object
    budgets: list[float]
    warmup: float
    archs: tuple

    def runs(self) -> list[tuple[str, object]]:
        return [("NO-CACHE", None)] + [(a.name, a) for a in self.archs]

    @property
    def expected(self) -> int:
        n = self.workload.num_requests
        return n - int(self.warmup * n)


def simulate(world: World, arch, engine="fast", workload=None, observer=None,
             preload=None, frozen=False):
    """One run: the no-cache baseline when ``arch`` is None."""
    workload = world.workload if workload is None else workload
    if arch is None:
        return simulate_no_cache(
            world.network, workload, world.costs,
            warmup_fraction=world.warmup, engine=engine, observer=observer,
        )
    return Simulator(
        world.network, arch, workload, world.budgets,
        hop_costs=world.costs, warmup_fraction=world.warmup, engine=engine,
        observer=observer, preload=preload, frozen_caches=frozen,
    ).run()


def fig6_worlds(seed: int, scale: float, tracer: Tracer) -> list[World]:
    """The Figure 6 sweep: synthetic Asia-log objects on every topology."""
    worlds = []
    for name in TOPOLOGY_NAMES:
        leaves = topology(name).num_pops * 2**5
        num_requests = max(1000, int(leaves * FIG6_PER_LEAF * scale))
        config = ExperimentConfig(
            topology=name,
            num_requests=num_requests,
            num_objects=max(100, num_requests // FIG6_REQUESTS_PER_OBJECT),
            warmup_fraction=0.2,
            seed=seed,
        )
        with tracer.span("topology.build", world=name):
            network = build_network(config)
            costs = hop_costs(network, config.latency_model, config.core_latency_factor)
            budgets = node_budgets(
                network, config.budget_fraction, config.num_objects, config.budget_split
            )
        with tracer.span("workload.prepass", world=name):
            objects, _ = region_object_stream(
                "asia", np.random.default_rng(seed + 1),
                scale=num_requests / ASIA_REQUESTS, num_objects=config.num_objects,
            )
            workload = build_workload(config, network, objects=objects)
        worlds.append(World(name, network, workload, costs, budgets,
                            config.warmup_fraction, BASELINE_ARCHITECTURES))
    return worlds


def replay_world(seed: int, num_requests: int, archs: tuple, label: str,
                 tracer: Tracer) -> World:
    """A streamed Zipf replay on Abilene with binary depth-3 access trees."""
    with tracer.span("topology.build", world=label):
        network = Network(topology("abilene"), AccessTree(arity=2, depth=3))
        costs = network.unit_hop_costs()
        budgets = node_budgets(network, 0.05, REPLAY_OBJECTS, "proportional")
    with tracer.span("workload.prepass", world=label):
        workload = stream_workload(
            network, REPLAY_OBJECTS, num_requests, 1.04,
            np.random.default_rng(seed), chunk_size=REPLAY_CHUNK,
        )
    return World(label, network, workload, costs, budgets, 0.0, archs)


def replay_sp_worlds(seed: int, scale: float, tracer: Tracer) -> list[World]:
    n = max(1000, int(REPLAY_SP_REQUESTS * scale))
    return [replay_world(seed, n, (ICN_SP,), "abilene", tracer)]


def replay_edge_worlds(seed: int, scale: float, tracer: Tracer) -> list[World]:
    n = max(1000, int(REPLAY_EDGE_REQUESTS * scale))
    return [replay_world(seed, n, (EDGE, EDGE_COOP), "abilene", tracer)]


def run_world(world: World, into: Pass, tracer: Tracer = UNTRACED,
              engine: str = "fast") -> None:
    """Every run of one world, each timed; a traced pass also times each chunk."""
    workload = timed_chunks(world.workload, tracer) if tracer.enabled else None
    for name, arch in world.runs():
        key = f"{world.label}/{name}"
        into.requests += world.workload.num_requests
        with tracer.span("core.run", world=world.label, arch=name), \
                stopwatch(into, key):
            try:
                result = simulate(world, arch, engine, workload)
            except Exception as exc:  # noqa: BLE001 - counted as a failed run
                traceback.print_exc()
                into.items.append(
                    Item(key, None, world.expected, f"{type(exc).__name__}: {exc}")
                )
                continue
        into.items.append(Item(key, result, world.expected))


def popularity_preload(world: World, arch) -> dict[int, list[int]]:
    """Fill each cache with the most popular objects (ids are popularity ranks)."""
    caches = Simulator(
        world.network, arch, world.workload, world.budgets, hop_costs=world.costs
    ).caches
    preload = {}
    for node, cache in caches.items():
        slots = min(int(cache.capacity), world.workload.num_objects)
        if slots > 0:
            preload[node] = list(range(slots))
    return preload


def clock(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def drain(workload, tolist: bool) -> None:
    for chunk in workload.chunks():
        if tolist:
            chunk.pops.tolist()
            chunk.leaves.tolist()
            chunk.objects.tolist()


def run_spans(tracer: Tracer, since: int) -> dict[tuple[str, str], dict]:
    """The ``core.run`` spans recorded since ``since``, by (world, run)."""
    return {
        (r["attrs"]["world"], r["attrs"]["arch"]): r
        for r in tracer.records[since:]
        if r["name"] == "core.run"
    }


def drain_costs(world: World, tracer: Tracer) -> tuple[float, float]:
    """Seconds to drain the stream, and what ``tolist`` adds to that."""
    with tracer.span("ladder.drain", world=world.label):
        drained = clock(drain, world.workload, False)
    with tracer.span("ladder.tolist", world=world.label):
        tolist = clock(drain, world.workload, True) - drained
    return drained, tolist


def frozen_route(world: World, arch, drained: float, tolist: float,
                 tracer: Tracer) -> float:
    """Routing-walk seconds of one run: frozen popularity-preloaded caches,
    net of the same run on zero requests and of draining the stream."""
    preload = popularity_preload(world, arch)
    empty = empty_like(world.workload)
    with tracer.span("ladder.frozen", world=world.label, arch=arch.name):
        fixed = clock(simulate, world, arch, workload=empty, preload=preload, frozen=True)
        frozen = clock(simulate, world, arch, preload=preload, frozen=True)
    return frozen - fixed - drained - tolist


def world_ledger(world: World, tracer: Tracer, ledger: dict, spans: dict,
                 split_route: bool = True) -> list:
    """Add one world's layer self-times to ``ledger``; return observer results.

    ``spans`` holds the world's full runs from a traced pass, whose chunk
    spans give the chunk self-time.  The ladder then times the same
    stream drained, drained plus ``tolist``, run on zero requests, and
    (with ``split_route``) run with frozen popularity-preloaded caches.
    Each layer is the difference of two rungs, so the layers of a run
    sum to its traced time.  Without ``split_route`` the whole cached
    work lands in ``cache.insert_s`` for the caller to split.
    """
    spans = {arch: r for (label, arch), r in spans.items() if label == world.label}
    drained, tolist = drain_costs(world, tracer)
    empty = empty_like(world.workload)
    for name, arch in world.runs():
        full = duration(spans[name])
        chunk = tracer.children_total(spans[name], "workload.chunk")
        with tracer.span("ladder.fixed", world=world.label, arch=name):
            fixed = clock(simulate, world, arch, workload=empty)
        ledger["workload.chunk_s"] += chunk
        ledger["workload.tolist_s"] += tolist
        ledger["core.fixed_s"] += fixed
        ledger["runs"] += 1
        work = full - fixed - chunk - tolist
        if arch is None:
            ledger["core.no_cache_s"] += work
            continue
        route = frozen_route(world, arch, drained, tolist, tracer) if split_route else 0.0
        ledger["core.route_s"] += route
        ledger["cache.insert_s"] += work - route
    observer = Observer()
    results = []
    for name, arch in world.runs():
        with tracer.span("ladder.observer", world=world.label, arch=name) as span:
            results.append(simulate(world, arch, observer=observer))
        ledger["obs.observer_s"] += duration(span) - duration(spans[name])
    totals = observer.registry.totals()
    ledger["cache.copies"] += totals.get("repro_node_copies_total", 0.0)
    ledger["cache.evictions"] += totals.get("repro_node_evictions_total", 0.0)
    return results


class SerialBench:
    """A workload whose pass makes every run of its worlds in this process."""

    def __init__(self, build) -> None:
        self.build = build

    def setup(self, seed: int, scale: float, tracer: Tracer = UNTRACED):
        return self.build(seed, scale, tracer)

    def prepare(self, worlds) -> None:
        """Nothing to count: a world knows its measured request count."""

    def run_pass(self, worlds, tracer: Tracer = UNTRACED, engine: str = "fast",
                 probe: HostProbe | None = None) -> Pass:
        into = Pass(probe=probe)
        for world in worlds:
            run_world(world, into, tracer, engine)
        return into

    def gate(self, seed: int, scale: float) -> list[tuple[Item, Item]]:
        twin = self.setup(seed, scale * GATE_SHARE)
        reference = self.run_pass(twin, engine="reference").items
        fast = self.run_pass(twin).items
        return list(zip(reference, fast))

    def ledger(self, worlds, tracer: Tracer) -> tuple[dict, Pass]:
        ledger = new_ledger()
        ledger["topology.build_s"] = tracer.total("topology.build")
        ledger["workload.prepass_s"] = tracer.total("workload.prepass")
        with tracer.span("pass.untraced") as untraced_span:
            untraced = self.run_pass(worlds)
        with tracer.span("pass.traced") as traced:
            mark = len(tracer.records)
            self.run_pass(worlds, tracer)
        spans = run_spans(tracer, mark)
        results = []
        for world in worlds:
            results += world_ledger(world, tracer, ledger, spans)
        add_counts(ledger, results)
        pass_s = duration(untraced_span)
        return finish_ledger(ledger, pass_s, duration(traced), TIMED_LAYERS), untraced


# ---------------------------------------------------------------------------
# The PoP-sharded sweep: one streamed point, eight shards
# ---------------------------------------------------------------------------
@dataclass
class SweepState:
    point: SweepPoint
    shards: tuple
    counts: tuple[int, ...] = ()


def sweep_config(seed: int, scale: float) -> ExperimentConfig:
    return ExperimentConfig(
        topology="att",
        tree_depth=5,
        num_objects=SWEEP_OBJECTS,
        num_requests=max(1000, int(SWEEP_REQUESTS * scale)),
        warmup_fraction=0.0,
        seed=seed,
    )


def shard_world(config: ExperimentConfig, index: int, tracer: Tracer,
                num_shards: int = SWEEP_SHARDS) -> World:
    """What one shard builds before its first simulated request."""
    label = f"shard-{index}-of-{num_shards}"
    with tracer.span("topology.build", world=label):
        network = build_network(config)
        costs = hop_costs(network, config.latency_model, config.core_latency_factor)
        budgets = node_budgets(
            network, config.budget_fraction, config.num_objects, config.budget_split
        )
    with tracer.span("workload.prepass", world=label):
        workload = pop_shard(
            build_streaming_workload(config, network), index, num_shards
        )
    return World(label, network, workload, costs, budgets, 0.0, SWEEP_ARCHS)


@functools.cache
def shard_counts(config: ExperimentConfig) -> tuple[int, ...]:
    """Requests per PoP shard, counted independently of ``pop_shard``."""
    stream = build_streaming_workload(config, build_network(config))
    counts = np.zeros(SWEEP_SHARDS, dtype=np.int64)
    for chunk in stream.chunks():
        counts += np.bincount(chunk.pops % SWEEP_SHARDS, minlength=SWEEP_SHARDS)
    return tuple(counts.tolist())


def timed_shard(into: Pass, point: SweepPoint, engine: str, observer=None):
    """``run_sweep``'s runner for a pass: a shard point run as the default
    runner runs it, timed on its own."""
    with stopwatch(into, point.key):
        return run_streamed_experiment(
            point.config, point.architectures, shard=point.shard,
            engine=engine, observer=observer,
        )


class SweepBench:
    """``run_sweep`` over the PoP shards of one point, then the merge.

    A pass runs the shards one after another in this process, so that
    each is timed on one core between two host probes; two workers on
    the two cores of a shared host would time the other tenants as much
    as the sweep.  The traced run adds a pass on a ``SWEEP_WORKERS``-
    worker pool, for the ``sweep.speedup`` and ``sweep.overhead_s``
    figures.
    """

    def setup(self, seed: int, scale: float, tracer: Tracer = UNTRACED) -> SweepState:
        config = sweep_config(seed, scale)
        point = SweepPoint(key="att", config=config, architectures=SWEEP_ARCHS)
        state = SweepState(point, shard_points(point, SWEEP_SHARDS))
        shard_world(config, 0, tracer)
        return state

    def prepare(self, state: SweepState) -> None:
        state.counts = shard_counts(state.point.config)

    def run_pass(self, state: SweepState, tracer: Tracer = UNTRACED,
                 probe: HostProbe | None = None) -> Pass:
        point = state.point
        runs = ["NO-CACHE"] + [a.name for a in SWEEP_ARCHS]
        into = Pass(requests=point.config.num_requests * len(runs),
                    observer=Observer(), probe=probe)
        merged = None
        with tracer.span("sweep.run"):
            outcome = run_sweep(
                state.shards, workers=1, observer=into.observer,
                runner=functools.partial(timed_shard, into),
            )
        if not outcome.failures:
            with tracer.span("sweep.merge"), stopwatch(into, f"{point.key}/merge"):
                merged = merge_sharded_results(
                    point, [outcome.results[s.key] for s in state.shards]
                )
        for shard, expected in zip(state.shards, state.counts):
            if shard.key in outcome.results:
                into.items += experiment_items(
                    shard.key, outcome.results[shard.key], expected
                )
            else:
                error = "; ".join(outcome.failures.get(shard.key, ["no result"]))
                into.items += [
                    Item(f"{shard.key}/{name}", None, expected, error) for name in runs
                ]
        if merged is not None:
            into.items += experiment_items(
                f"{point.key}/merged", merged, point.config.num_requests
            )
        return into

    def gate(self, seed: int, scale: float) -> list[tuple[Item, Item]]:
        config = sweep_config(seed, scale * GATE_SHARE)
        expected = shard_counts(config)[0]
        pair = []
        for engine in ("reference", "fast"):
            result = run_streamed_experiment(
                config, SWEEP_ARCHS, shard=(0, SWEEP_SHARDS), engine=engine
            )
            pair.append(experiment_items("att/shard-0", result, expected))
        return list(zip(*pair))

    def ledger(self, state: SweepState, tracer: Tracer) -> tuple[dict, Pass]:
        ledger = new_ledger()
        with tracer.span("pass.untraced") as untraced_span:
            untraced = self.run_pass(state)
        pass_s = duration(untraced_span)
        with tracer.span("pass.traced") as traced:
            mark = len(tracer.records)
            self.run_pass(state, tracer)
        serial = tracer.total("sweep.run", mark)
        ledger["sweep.merge_s"] = tracer.total("sweep.merge", mark)
        ledger["sweep.merge_ms"] = 1000 * ledger["sweep.merge_s"]
        with tracer.span("sweep.parallel", workers=SWEEP_WORKERS) as parallel:
            run_sweep(state.shards, workers=SWEEP_WORKERS, observer=Observer())
        ledger["sweep.speedup"] = serial / duration(parallel)
        ledger["sweep.overhead_s"] = duration(parallel) - serial / SWEEP_WORKERS
        # What the pass does per shard, one layer at a time: build, then
        # the runs (traced, bare, and with the observer the pass attaches).
        config = state.point.config
        mark = len(tracer.records)
        for index in range(SWEEP_SHARDS):
            world = shard_world(config, index, tracer)
            runs = len(tracer.records)
            with tracer.span("shard.full", world=world.label):
                run_world(world, Pass(), tracer)
            world_ledger(world, tracer, ledger, run_spans(tracer, runs), split_route=False)
        ledger["topology.build_s"] = tracer.total("topology.build", mark)
        ledger["workload.prepass_s"] = tracer.total("workload.prepass", mark)
        serial_s = (ledger["topology.build_s"] + ledger["workload.prepass_s"]
                    + tracer.total("ladder.observer", mark))
        # The same point unsharded: one stream, one build, no filtering.
        mark = len(tracer.records)
        whole = shard_world(config, 0, tracer, num_shards=1)
        observer = Observer()
        for name, arch in whole.runs():
            with tracer.span("ladder.observer", world=whole.label, arch=name):
                simulate(whole, arch, observer=observer)
        unsharded_s = (tracer.total("topology.build", mark)
                       + tracer.total("workload.prepass", mark)
                       + tracer.total("ladder.observer", mark))
        ledger["sweep.shard_cost_s"] = serial_s - unsharded_s
        # Frozen caches make routing stateless per request, so the routing
        # walk of the whole stream is the sum of its shards' walks.
        drained, tolist = drain_costs(whole, tracer)
        route = sum(frozen_route(whole, a, drained, tolist, tracer) for a in whole.archs)
        ledger["core.route_s"] += route
        ledger["cache.insert_s"] -= route
        # The pass's own observer saw every shard.
        totals = untraced.observer.registry.totals()
        ledger["cache.copies"] = totals.get("repro_node_copies_total", 0.0)
        ledger["cache.evictions"] = totals.get("repro_node_evictions_total", 0.0)
        add_counts(ledger, [
            i.result for i in untraced.items
            if i.result is not None and "/merged/" not in i.key
        ])
        return finish_ledger(
            ledger, pass_s, duration(traced), SWEEP_TIMED_LAYERS
        ), untraced


# ---------------------------------------------------------------------------
# Ledger arithmetic and the cache microbenchmark
# ---------------------------------------------------------------------------
def new_ledger() -> dict:
    ledger = dict.fromkeys(PER_LAYER, 0.0)
    ledger.update({"core.fixed_s": 0.0, "runs": 0, "serves": 0.0, "requests": 0.0})
    return ledger


def add_counts(ledger: dict, results: list) -> None:
    """Serve counts of the cached runs (the baseline never hits a cache)."""
    for r in results:
        if r.architecture != "NO-CACHE":
            ledger["serves"] += r.cache_served + r.coop_served
            ledger["requests"] += r.num_requests


def finish_ledger(ledger: dict, pass_s: float, traced_s: float, layers: tuple) -> dict:
    """Derive the ratios, the residual and the tracing overhead."""
    ledger["core.fixed_ms_per_run"] = 1000 * ledger["core.fixed_s"] / max(1, ledger["runs"])
    ledger["cache.hit_ratio"] = ledger["serves"] / max(1.0, ledger["requests"])
    ledger["cache.useful_copy_ratio"] = ledger["serves"] / max(1.0, ledger["cache.copies"])
    ledger["bench.pass_s"] = pass_s
    ledger["bench.residual_s"] = pass_s - sum(ledger[name] for name in layers)
    ledger["bench.trace_overhead_frac"] = traced_s / pass_s - 1
    ledger["timed_layers"] = list(layers)
    return ledger


def cache_microbench(seed: int, scale: float, tracer: Tracer) -> dict:
    """Per-operation cost of the fast cache structs on the replay-sp stream.

    Each ``lookup`` and each miss's ``insert`` is timed on its own; the
    cost of reading the clock is measured and subtracted.
    """
    ops = max(1000, int(MICROBENCH_OPS * scale))
    stream = replay_world(seed, ops, (), "microbench", UNTRACED).workload
    objects = [obj for chunk in stream.chunks() for obj in chunk.objects.tolist()]
    sizes = [1.0] * REPLAY_OBJECTS
    capacity = MICROBENCH_CAPACITY * REPLAY_OBJECTS
    now = time.perf_counter_ns
    reads = []
    for _ in range(10_000):
        t0 = now()
        reads.append(now() - t0)
    overhead = statistics.median(reads)
    out = {}
    for policy, cls in (("lru", FastLRU), ("lfu", FastLFU), ("fifo", FastFIFO)):
        cache = cls(capacity, REPLAY_OBJECTS, sizes)
        lookup, insert = cache.lookup, cache.insert
        hit_ns = insert_ns = hits = inserts = 0
        with tracer.span(f"cache.{policy}", ops=len(objects)):
            for obj in objects:
                t0 = now()
                hit = lookup(obj)
                t1 = now()
                if hit:
                    hit_ns += t1 - t0
                    hits += 1
                else:
                    t2 = now()
                    insert(obj)
                    insert_ns += now() - t2
                    inserts += 1
        out[f"cache.{policy}.hit_ns"] = hit_ns / max(1, hits) - overhead
        out[f"cache.{policy}.insert_ns"] = insert_ns / max(1, inserts) - overhead
    return out


# ---------------------------------------------------------------------------
# One workload, measured in this process
# ---------------------------------------------------------------------------
BENCHES = {
    "fig6-trace": SerialBench(fig6_worlds),
    "replay-sp": SerialBench(replay_sp_worlds),
    "replay-edge": SerialBench(replay_edge_worlds),
    "sweep-sharded": SweepBench(),
}


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped child (Linux: KiB)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024


class Checks:
    """Attempted and failed simulation runs, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    def item(self, item: Item, why: str | None = None) -> None:
        self.attempted += 1
        why = why or problem(item)
        if why is not None:
            self.problems.append(f"{item.key}: {why}")

    def gate(self, pairs: list[tuple[Item, Item]]) -> None:
        for reference, fast in pairs:
            why = problem(reference) or problem(fast)
            if why is None and fingerprint(reference.result) != fingerprint(fast.result):
                why = "reference and fast engines disagree"
            self.item(fast, f"gate: {why}" if why else None)

    def run_pass(self, result: Pass, first: dict[str, str] | None) -> None:
        for item in result.items:
            why = problem(item)
            if why is None and first is not None:
                if first.get(item.key) != fingerprint(item.result):
                    why = "differs from the first pass"
            self.item(item, why)


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    """Measure one workload; the payload the child prints."""
    bench = BENCHES[name]
    checks = Checks()
    tracer = Tracer(name, enabled=trace)
    payload: dict = {"workload": name, "seed": seed, "trace": trace}
    with tracer.span("bench", seed=seed, scale=scale):
        if trace:
            with tracer.span("setup"):
                state = bench.setup(seed, scale, tracer)
            bench.prepare(state)
        with tracer.span("gate"):
            checks.gate(bench.gate(seed, scale))
        if trace:
            ledger, untraced = bench.ledger(state, tracer)
            checks.run_pass(untraced, None)
            payload["digest"] = digest_of(untraced.items)
            with tracer.span("microbench"):
                ledger.update(cache_microbench(seed, scale, tracer))
        else:
            timed = timed_passes(bench, seed, scale, seconds, checks)
            payload["digest"] = timed.pop("digest")
    if trace:
        RESULTS.mkdir(parents=True, exist_ok=True)
        tracer.write(RESULTS / f"trace-{name}.jsonl")
        payload["ledger"] = ledger
        metrics = {metric: (ledger[metric], 1) for metric in PER_LAYER}
        units = PER_LAYER
    else:
        passes = len(timed["samples"]["pass_s"])
        metrics = {
            "sim_rps": (timed["sim_rps"], passes),
            "setup_s": (timed["setup_s"], len(timed["samples"]["setup_s"])),
            "peak_rss_mb": (peak_rss_mb(), 1),
            "cpu_us_per_req": (timed["cpu_us_per_req"], passes),
        }
        payload["raw"] = timed["raw"]
        payload["samples"] = timed["samples"]
        units = END_TO_END
    payload["metrics"] = {
        metric: {"value": value, "unit": units[metric], "n": n}
        for metric, (value, n) in metrics.items()
    }
    payload["attempted"] = checks.attempted
    payload["failed"] = len(checks.problems)
    payload["problems"] = checks.problems
    return payload


def timed_passes(bench, seed: int, scale: float, seconds: float, checks: Checks) -> dict:
    """Build the inputs and run a pass on them until ``seconds`` elapse.

    Before every pass the inputs are built from the seed
    ``SETUP_REPEATS`` times, each build a set-up sample, and the pass
    runs on the last build; so set-up samples are spread over the whole
    run rather than bunched into one stretch of host load, and every
    pass must reproduce the first one from freshly built inputs.  Each
    build and each run (for the sweep, each shard and the merge) is
    timed on its own between two host probes, on the core the round
    settled on; a pass's time is estimated as the sum of every run's
    median over the passes, which shrugs off a burst of noise from other
    tenants that slows a few runs of one pass.  The metrics come both
    scaled to nominal host speed and, under ``raw``, as timed.
    """
    timings: dict[str, list[tuple[float, float, float]]] = {}
    setups: list[tuple[float, float]] = []
    pass_s: list[float] = []
    first = None
    probe = HostProbe()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        probe.settle()
        for _ in range(SETUP_REPEATS):
            state = None  # free the previous inputs before building again
            before = probe.speed()
            t0 = time.perf_counter()
            state = bench.setup(seed, scale)
            setups.append((time.perf_counter() - t0, probe.slowdown(before)))
        bench.prepare(state)
        t0 = time.perf_counter()
        result = bench.run_pass(state, probe=probe)
        pass_s.append(time.perf_counter() - t0)
        checks.run_pass(result, first)
        if first is None:
            first = {
                i.key: fingerprint(i.result) for i in result.items if i.result is not None
            }
            digest = digest_of(result.items)
        for key, timing in result.timings.items():
            timings.setdefault(key, []).append(timing)
        now = time.perf_counter()
        if len(pass_s) >= MIN_PASSES and (now - start) + (now - round_start) > seconds:
            break  # another round like this one would overrun the timed phase
    samples = {
        "setup_s": setups,
        "pass_s": pass_s,
        "runs": timings,
        "probes": probe.samples,
    }
    return {
        **summarize(timings, setups, result.requests, scaled=True),
        "raw": summarize(timings, setups, result.requests, scaled=False),
        "samples": samples,
        "digest": digest,
    }


def summarize(timings: dict, setups: list, requests: int, scaled: bool) -> dict:
    """The timed metrics, with every sample divided by its slowdown if ``scaled``."""

    def median(samples) -> float:
        return statistics.median(t / s if scaled else t for t, s in samples)

    wall = sum(median((w, s) for w, _, s in runs) for runs in timings.values())
    cpu = sum(median((c, s) for _, c, s in runs) for runs in timings.values())
    return {
        "sim_rps": requests / wall,
        "cpu_us_per_req": 1e6 * cpu / requests,
        "setup_s": median(setups),
    }


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------
def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(BENCHES),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--seconds", type=float, default=26.0,
                        help="length of the timed phase per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="measure the layer ledger instead")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every request count (self-test: 0.01)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_main(args: argparse.Namespace) -> int:
    """Measure one workload and print its payload as one JSON line."""
    payload = measure(args.child, args.seed, args.seconds, bool(args.trace), args.scale)
    for line in payload["problems"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(payload))
    return 1 if payload["failed"] else 0


def run_child(name: str, args: argparse.Namespace) -> tuple[dict, int]:
    """Run one workload's child in its own process group, which a timeout kills
    whole, sweep workers included."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", str(args.scale),
    ]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, _ = proc.communicate()
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, json.JSONDecodeError):
        print(f"{name}: child exited {proc.returncode} without a result",
              file=sys.stderr)
        return {"workload": name, "attempted": 1, "failed": 1, "metrics": {},
                "problems": ["child crashed"], "digest": ""}, proc.returncode or 1


def print_ledger(name: str, ledger: dict) -> None:
    pass_s = ledger["bench.pass_s"]
    print(f"# {name} layer ledger: untraced pass {pass_s:.3f} s")
    rows = [(layer, ledger[layer]) for layer in ledger["timed_layers"]]
    rows.append(("bench.residual_s", ledger["bench.residual_s"]))
    for layer, seconds in rows:
        print(f"#   {layer:<22} {seconds:9.3f} s {100 * seconds / pass_s:6.1f}%")
    print(f"#   tracing overhead {100 * ledger['bench.trace_overhead_frac']:.1f}%")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    names = args.workload or list(BENCHES)
    payloads, codes = {}, []
    for name in names:
        payload, code = run_child(name, args)
        payloads[name] = payload
        codes.append(code)
        for metric, m in payload["metrics"].items():
            print(f"{name} {metric} {m['value']!r} {m['unit']} n={m['n']}")
        attempted, failed = payload["attempted"], payload["failed"]
        print(f"{name} failed_frac {failed / max(1, attempted)!r} ratio n={attempted}")
        print(f"{name} digest {payload['digest']} sha256")
        if payload.get("ledger"):
            print_ledger(name, payload["ledger"])
    RESULTS.mkdir(parents=True, exist_ok=True)
    report = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "scale": args.scale, "workloads": payloads}
    (RESULTS / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    metrics = {}
    for name, payload in payloads.items():
        for metric, m in payload["metrics"].items():
            key = metric if len(payloads) == 1 else f"{name}:{metric}"
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    attempted = sum(p["attempted"] for p in payloads.values())
    failed = sum(p["failed"] for p in payloads.values())
    correct = failed == 0 and not any(codes)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

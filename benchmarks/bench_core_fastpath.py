"""Core engine performance: fast vs reference on the Figure 6 sweep.

Builds every Figure 6 world (topology, network, trace-driven workload,
budgets) once, then times the *simulations* — the no-cache baseline
plus all five baseline architectures per topology — under both engines.
The shared setup is identical work regardless of engine, so it is
measured separately and reported alongside; the headline ``speedup`` is
engine-vs-engine on exactly the Figure 6 request streams.  Outputs are
asserted identical before any number is written.

The report lands in ``BENCH_core.json`` at the repository root so the
perf trajectory (wall-clock, requests/sec, speedup, per-figure
timings) is tracked in version control from run to run.  Its
``phase_seconds`` block holds the four phases' wall-clock seconds,
measured with ``time.perf_counter``.

Scale with ``REPRO_BENCH_SCALE`` as usual; the committed numbers use
scale 1.0.  The speedup floor asserted here is the PR's acceptance bar
(>= 3x) at full scale, relaxed at smoke scales where per-run fixed
costs (path memoization, cache allocation) eat into the win.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import SCALE, SEED, WORKERS, emit, leaf_scaled_config
from harness import asia_trace_objects, run_topologies
from repro.analysis import sweep_gap
from repro.cache.budget import node_budgets
from repro.core import (
    BASELINE_ARCHITECTURES,
    EDGE,
    ICN_NR,
    Simulator,
    build_network,
    build_workload,
    simulate_no_cache,
)
from repro.core.latency import hop_costs as build_hop_costs
from repro.obs import SpanTracker, read_spans
from repro.topology import TOPOLOGY_NAMES

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_core.json"

#: Deterministic span export for the bench (structure + request counts,
#: never timings — those live in BENCH_core.json's phase_seconds).
SPANS_JSONL = Path(__file__).parent / "results" / "bench_core_spans.jsonl"

#: Acceptance floor for fast-vs-reference on the Figure 6 simulations.
FULL_SCALE_SPEEDUP = 3.0
SMOKE_SPEEDUP = 1.5


def _build_worlds():
    """Everything Figure 6 needs, shared by both engines."""
    worlds = []
    for name in TOPOLOGY_NAMES:
        config = leaf_scaled_config(
            name, budget_split="proportional", origin_mode="proportional"
        )
        network = build_network(config)
        workload = build_workload(
            config, network, objects=asia_trace_objects(config)
        )
        costs = build_hop_costs(
            network, config.latency_model, config.core_latency_factor
        )
        budgets = node_budgets(
            network, config.budget_fraction, config.num_objects,
            config.budget_split,
        )
        worlds.append((name, config, network, workload, costs, budgets))
    return worlds


def _simulate_all(worlds, engine):
    """Run the Figure 6 simulations (baseline + architectures) timed."""
    results = {}
    start = time.perf_counter()
    for name, config, network, workload, costs, budgets in worlds:
        per = {
            "NO-CACHE": simulate_no_cache(
                network, workload, costs,
                warmup_fraction=config.warmup_fraction, engine=engine,
            )
        }
        for arch in BASELINE_ARCHITECTURES:
            per[arch.name] = Simulator(
                network, arch, workload, budgets,
                policy=config.policy,
                hop_costs=costs,
                capacity=config.capacity,
                warmup_fraction=config.warmup_fraction,
                engine=engine,
            ).run()
        results[name] = per
    return results, time.perf_counter() - start


def _fingerprint(result):
    return (
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


def test_core_engine_speedup(once):
    def run():
        tracker = SpanTracker(SEED)
        bench_span = tracker.open(
            "bench_core_fastpath", "run", scale=SCALE, seed=SEED
        )
        with tracker.span("figure6_setup", "phase") as setup_span:
            start = time.perf_counter()
            worlds = _build_worlds()
            setup_seconds = time.perf_counter() - start
            setup_span.annotate(topologies=len(worlds))
        runs_per_world = len(BASELINE_ARCHITECTURES) + 1
        requests = sum(
            world[1].num_requests * runs_per_world for world in worlds
        )
        bench_span.annotate(requests=requests)

        with tracker.span(
            "figure6_reference", "phase",
            engine="reference", requests=requests,
        ):
            reference, ref_seconds = _simulate_all(worlds, "reference")
        with tracker.span(
            "figure6_fast", "phase", engine="fast", requests=requests
        ):
            fast, fast_seconds = _simulate_all(worlds, "fast")
        # Differential check at bench scale: every aggregate the two
        # engines produced must coincide exactly.
        for name in reference:
            for arch, result in reference[name].items():
                assert _fingerprint(result) == _fingerprint(
                    fast[name][arch]
                ), (name, arch)

        with tracker.span("figure8a_2pt_fast", "phase", points=2):
            start = time.perf_counter()
            sweep_gap(
                "alpha", (0.4, 1.04),
                lambda a: leaf_scaled_config("abilene", alpha=a),
                ICN_NR, EDGE, engine="fast", workers=WORKERS,
            )
            sweep_seconds = time.perf_counter() - start

        tracker.close(bench_span)
        SPANS_JSONL.parent.mkdir(exist_ok=True)
        tracker.write(SPANS_JSONL)
        read_spans(SPANS_JSONL)

        return {
            "schema": "bench_core/v1",
            "scale": SCALE,
            "seed": SEED,
            "workers": WORKERS,
            "figure6": {
                "topologies": list(TOPOLOGY_NAMES),
                "architectures": [a.name for a in BASELINE_ARCHITECTURES],
                "simulated_requests": requests,
                "setup_seconds": round(setup_seconds, 3),
                "reference_seconds": round(ref_seconds, 3),
                "fast_seconds": round(fast_seconds, 3),
                "speedup": round(ref_seconds / fast_seconds, 2),
                "end_to_end_speedup": round(
                    (setup_seconds + ref_seconds)
                    / (setup_seconds + fast_seconds),
                    2,
                ),
                "reference_requests_per_second": round(
                    requests / ref_seconds
                ),
                "fast_requests_per_second": round(requests / fast_seconds),
            },
            # Wall-clock phases, keyed and sorted as bench-diff gates them.
            "phase_seconds": {
                "figure6_fast": round(fast_seconds, 3),
                "figure6_reference": round(ref_seconds, 3),
                "figure6_setup": round(setup_seconds, 3),
                "figure8a_2pt_fast": round(sweep_seconds, 3),
            },
            "engines_identical": True,
        }

    report = once(run)
    BENCH_JSON.write_text(json.dumps(report, indent=2) + "\n")
    fig6 = report["figure6"]
    emit(
        "bench_core",
        "\n".join(
            [
                "Fast engine vs reference on the Figure 6 baseline sweep",
                f"  scale {report['scale']}, seed {report['seed']}",
                f"  shared setup (workloads, networks): "
                f"{fig6['setup_seconds']}s",
                f"  reference: {fig6['reference_seconds']}s "
                f"({fig6['reference_requests_per_second']} req/s)",
                f"  fast:      {fig6['fast_seconds']}s "
                f"({fig6['fast_requests_per_second']} req/s)",
                f"  speedup:   {fig6['speedup']}x engine-vs-engine "
                f"({fig6['end_to_end_speedup']}x end to end)",
                f"  written to {BENCH_JSON.name}",
            ]
        ),
    )
    floor = FULL_SCALE_SPEEDUP if SCALE >= 1.0 else SMOKE_SPEEDUP
    assert fig6["speedup"] >= floor, (
        f"fast engine speedup {fig6['speedup']}x below the {floor}x floor"
    )


def test_parallel_sweep_matches_serial_figure6():
    """The harness path: worker fan-out must not change a single number."""
    kwargs = dict(
        budget_split="proportional",
        origin_mode="proportional",
        topologies=("abilene", "geant"),
    )
    serial = run_topologies(BASELINE_ARCHITECTURES, engine="fast",
                            workers=0, **kwargs)
    parallel = run_topologies(BASELINE_ARCHITECTURES, engine="fast",
                              workers=2, **kwargs)
    for name in serial:
        assert serial[name].improvements == parallel[name].improvements

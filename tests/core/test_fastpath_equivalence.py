"""Differential suite pinning the fast engine to the reference engine.

Every test runs the same configuration through ``engine="reference"``
and ``engine="fast"`` and asserts *field-for-field* equality of the
resulting :class:`SimulationResult` — including the float aggregates
and the per-link / per-origin arrays.  The fast engine's contract is
bit-identical output, so no tolerances appear anywhere in this file.

The matrix covers the full architecture registry, NO-CACHE included
(a test checks it against the registry), crossed with every
replacement policy, plus the stateful corners: warm-up fractions,
preloaded (and frozen) caches, failed nodes, the serving-capacity
model, heterogeneous object sizes, non-unit latency models, and the
alternative on-path insertion policies.

The matrix can only sweep the knobs it knows about, so the engine
contracts at the end assert the rest on the live objects: every
``Simulator`` knob reaches the fast engine, every result field passes
through the shared finalizer, and both cache registries offer the same
policies with the interface the fast engine calls.
"""

from __future__ import annotations

import inspect
import zlib
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.cache import POLICIES as REFERENCE_POLICIES
from repro.cache.fast import _FAST_POLICIES, FastInfinite
from repro.core import (
    BASELINE_ARCHITECTURES,
    EDGE_COOP,
    EDGE_INF,
    EDGE_VARIANTS,
    ICN_NR,
    ICN_NR_GLOBAL,
    ICN_NR_INF,
    ICN_SP,
    NO_CACHE,
    CapacityModel,
    ExperimentConfig,
    Simulator,
    run_experiment,
    run_streamed_experiment,
    simulate_no_cache,
)
from repro.core.architectures import _REGISTRY
from repro.core.fastpath import FastEngine
from repro.core.latency import hop_costs as build_hop_costs
from repro.core.metrics import SimulationResult
from repro.obs import Observer
from repro.workload import generate_workload, stream_workload

pytestmark = pytest.mark.fastpath

ALL_ARCHITECTURES = (
    NO_CACHE,
    *BASELINE_ARCHITECTURES,
    *EDGE_VARIANTS,
    ICN_NR_GLOBAL,
    EDGE_INF,
    ICN_NR_INF,
)
POLICIES = ("lru", "lfu", "fifo")
TWO_LEVELS_COOP = next(a for a in EDGE_VARIANTS if a.name == "2-Levels-Coop")


def test_matrix_covers_the_registry():
    assert {a.name for a in ALL_ARCHITECTURES} == set(_REGISTRY)


def _both(network, arch, workload, budgets, **kwargs):
    """Run reference and fast engines over identical inputs."""
    ref = Simulator(
        network, arch, workload, budgets, engine="reference", **kwargs
    ).run()
    fast = Simulator(
        network, arch, workload, budgets, engine="fast", **kwargs
    ).run()
    return ref, fast


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize(
    "arch", ALL_ARCHITECTURES, ids=[a.name for a in ALL_ARCHITECTURES]
)
def test_architecture_policy_matrix(
    small_network, random_workload, results_identical, arch, policy
):
    """Every registered design x every policy (and the infinite caches).

    The seed is a stable digest of the case, so a failing case draws the
    same workload when rerun (``hash`` of a ``str`` is salted per process).
    """
    seed = zlib.crc32(f"{arch.name}/{arch.placement}/{policy}".encode())
    workload = random_workload(
        small_network, seed, num_requests=600, num_objects=40
    )
    budgets = [3.0] * small_network.num_nodes
    ref, fast = _both(
        small_network, arch, workload, budgets, policy=policy
    )
    results_identical(ref, fast)


@pytest.mark.parametrize("warmup", [0.0, 0.35, 0.8, 0.999])
def test_warmup_fractions(
    small_network, random_workload, results_identical, warmup
):
    workload = random_workload(
        small_network, 7, num_requests=400, num_objects=25
    )
    budgets = [2.0] * small_network.num_nodes
    ref, fast = _both(
        small_network, ICN_SP, workload, budgets, warmup_fraction=warmup
    )
    results_identical(ref, fast)


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize(
    "arch", [ICN_SP, ICN_NR, ICN_NR_GLOBAL], ids=lambda a: a.name
)
def test_preload_and_frozen_caches(
    small_network, random_workload, results_identical, arch, frozen
):
    """Preloaded state replays identically; frozen caches never mutate."""
    workload = random_workload(
        small_network, 11, num_requests=500, num_objects=30
    )
    budgets = [4.0] * small_network.num_nodes
    leaf = small_network.tree.leaves.start  # first leaf of PoP 0's tree
    preload = {0: [0, 1, 2], leaf: [3], small_network.tree_size: [0]}
    ref, fast = _both(
        small_network, arch, workload, budgets,
        preload=preload, frozen_caches=frozen,
    )
    results_identical(ref, fast)


@pytest.mark.parametrize(
    "arch",
    [ICN_SP, ICN_NR, ICN_NR_GLOBAL, EDGE_COOP],
    ids=lambda a: a.name,
)
def test_failed_nodes(
    small_network, random_workload, results_identical, arch
):
    """Routing around crashed caches matches, fallback counts included."""
    workload = random_workload(
        small_network, 13, num_requests=500, num_objects=30
    )
    budgets = [3.0] * small_network.num_nodes
    failed = {0, small_network.tree_size + 1}
    ref, fast = _both(
        small_network, arch, workload, budgets, failed_nodes=failed
    )
    results_identical(ref, fast)
    assert ref.fallback_served == fast.fallback_served


@pytest.mark.parametrize(
    "arch",
    [ICN_SP, ICN_NR, ICN_NR_GLOBAL, EDGE_COOP, TWO_LEVELS_COOP],
    ids=lambda a: a.name,
)
def test_capacity_model(
    small_network, random_workload, results_identical, arch
):
    """Serving-capacity rejections fire at the same requests.

    The cooperative cases pin a rule of the sp walk: a hit refused by
    capacity moves on up the chain and leaves that node's coop siblings
    unprobed.
    """
    workload = random_workload(
        small_network, 17, num_requests=600, num_objects=20
    )
    budgets = [3.0] * small_network.num_nodes
    ref, fast = _both(
        small_network, arch, workload, budgets,
        capacity=CapacityModel(per_window=4, window=50),
    )
    results_identical(ref, fast)


@pytest.mark.parametrize("policy", POLICIES)
def test_heterogeneous_sizes(
    small_network, random_workload, results_identical, policy
):
    """Variable object sizes: eviction loops and link loads stay equal."""
    workload = random_workload(
        small_network, 19, num_requests=600, num_objects=30,
        heterogeneous_sizes=True,
    )
    budgets = [5.0] * small_network.num_nodes
    for arch in (ICN_SP, ICN_NR, EDGE_COOP):
        ref, fast = _both(
            small_network, arch, workload, budgets, policy=policy
        )
        results_identical(ref, fast)


@pytest.mark.parametrize("model", ["unit", "arithmetic", "core_weighted"])
def test_latency_models(
    small_network, random_workload, results_identical, model
):
    workload = random_workload(
        small_network, 23, num_requests=400, num_objects=25
    )
    budgets = [3.0] * small_network.num_nodes
    costs = build_hop_costs(small_network, model, 4.0)
    ref, fast = _both(
        small_network, ICN_NR, workload, budgets, hop_costs=costs
    )
    results_identical(ref, fast)


@pytest.mark.parametrize("insertion", ["lcd", "probabilistic"])
@pytest.mark.parametrize(
    "arch",
    [ICN_SP, ICN_NR_GLOBAL, EDGE_INF, ICN_NR_INF],
    ids=lambda a: a.name,
)
def test_insertion_policies(
    small_network, random_workload, results_identical, arch, insertion
):
    """Leave-copy-down and coin-flip insertion consume the same RNG.

    Finite designs run under every replacement policy, so both arms of
    the fast engine's insert dispatch (inline LRU, struct ``insert``)
    are pinned for each insertion mode; infinite caches have no policy.
    """
    workload = random_workload(
        small_network, 29, num_requests=500, num_objects=30
    )
    budgets = [3.0] * small_network.num_nodes
    variant = replace(
        arch, name=f"{arch.name}-{insertion}", insertion=insertion
    )
    for policy in ("lru",) if arch.infinite else POLICIES:
        ref, fast = _both(
            small_network, variant, workload, budgets, policy=policy
        )
        results_identical(ref, fast)


def test_no_cache_baseline(small_network, random_workload, results_identical):
    workload = random_workload(
        small_network, 31, num_requests=400, num_objects=25
    )
    ref = simulate_no_cache(small_network, workload, engine="reference")
    fast = simulate_no_cache(small_network, workload, engine="fast")
    results_identical(ref, fast)


def test_kitchen_sink(small_network, random_workload, results_identical):
    """Everything at once: the combination must still be bit-identical."""
    workload = random_workload(
        small_network, 37, num_requests=700, num_objects=30,
        heterogeneous_sizes=True,
    )
    budgets = [4.0] * small_network.num_nodes
    costs = build_hop_costs(small_network, "core_weighted", 4.0)
    for arch in (ICN_NR, ICN_NR_GLOBAL):
        ref, fast = _both(
            small_network, arch, workload, budgets,
            policy="lfu",
            hop_costs=costs,
            capacity=CapacityModel(per_window=5, window=40),
            failed_nodes={small_network.tree_size + 2},
            warmup_fraction=0.3,
        )
        results_identical(ref, fast)


def _twin_workloads(small_network, chunk_size):
    """One seed, two deliveries: materialized arrays vs streamed chunks."""
    materialized = generate_workload(
        small_network, 30, 600, 1.0, np.random.default_rng(41)
    )
    streamed = stream_workload(
        small_network, 30, 600, 1.0, np.random.default_rng(41),
        chunk_size=chunk_size,
    )
    return materialized, streamed


@pytest.mark.parametrize("chunk_size", [113, 600, 10_000])
@pytest.mark.parametrize(
    "arch", [NO_CACHE, ICN_SP, ICN_NR_GLOBAL, EDGE_COOP], ids=lambda a: a.name
)
def test_streamed_equals_materialized(
    small_network, results_identical, arch, chunk_size
):
    """A chunked stream replays bit-identically on both engines.

    The streamed column of the matrix: the same seeded workload is fed
    once as full arrays and once as a chunk iterator (with a ragged
    final chunk, an exact fit, and a single oversized chunk), and all
    four engine x delivery combinations must agree field-for-field.
    NO-CACHE skips its warmup, so 113-request chunks straddling the
    150-request boundary pin the mid-chunk skip.
    """
    materialized, streamed = _twin_workloads(small_network, chunk_size)
    budgets = [3.0] * small_network.num_nodes
    ref_m, fast_m = _both(
        small_network, arch, materialized, budgets, warmup_fraction=0.25
    )
    ref_s, fast_s = _both(
        small_network, arch, streamed, budgets, warmup_fraction=0.25
    )
    results_identical(ref_m, fast_m)
    results_identical(ref_m, ref_s)
    results_identical(ref_m, fast_s)


@pytest.mark.parametrize("warmup", [0.0, 0.4])
def test_streamed_no_cache_baseline(small_network, results_identical, warmup):
    """The no-cache baseline consumes chunks identically, warmup included."""
    materialized, streamed = _twin_workloads(small_network, chunk_size=97)
    for engine in ("reference", "fast"):
        from_arrays = simulate_no_cache(
            small_network, materialized, warmup_fraction=warmup, engine=engine
        )
        from_chunks = simulate_no_cache(
            small_network, streamed, warmup_fraction=warmup, engine=engine
        )
        results_identical(from_arrays, from_chunks)


def test_run_streamed_experiment_matches_materialized(results_identical):
    """Orchestration parity: the streamed front end changes nothing."""
    config = ExperimentConfig(
        num_requests=3_000, num_objects=150, tree_depth=2, seed=55
    )
    materialized = run_experiment(config, engine="fast")
    for engine in ("reference", "fast"):
        streamed = run_streamed_experiment(config, engine=engine, chunk_size=499)
        results_identical(materialized.baseline, streamed.baseline)
        for name in materialized.results:
            results_identical(
                materialized.results[name], streamed.results[name]
            )
            assert materialized.improvements[name] == streamed.improvements[name]


def test_run_experiment_end_to_end(results_identical):
    """The orchestration layer sees identical results and improvements."""
    config = ExperimentConfig(
        num_requests=4_000, num_objects=200, tree_depth=2, seed=99
    )
    ref = run_experiment(config, engine="reference")
    fast = run_experiment(config, engine="fast")
    results_identical(ref.baseline, fast.baseline)
    for name in ref.results:
        results_identical(ref.results[name], fast.results[name])
        assert ref.improvements[name] == fast.improvements[name]


# ----------------------------------------------------------------------
# Engine contracts on the live objects
# ----------------------------------------------------------------------
#: Each ``Simulator.__init__`` knob and the simulator attribute that
#: carries it into a run.  ``engine`` is the dispatch knob itself.
KNOB_ATTRIBUTES = {
    "network": "network",
    "architecture": "architecture",
    "workload": "workload",
    "budgets": "caches",
    "policy": "policy",
    "hop_costs": "costs",
    "capacity": "_capacity",
    "warmup_fraction": "warmup_fraction",
    "preload": "_preload",
    "frozen_caches": "frozen_caches",
    "failed_nodes": "_failed",
    "observer": "observer",
}

#: Methods the fast engine calls on every flat cache struct.
FAST_STRUCT_METHODS = ("lookup", "insert", "__contains__", "__len__")


class _RecordingSimulator:
    """Forwards attribute reads to a simulator and records their names."""

    def __init__(self, target):
        self._target = target
        self._reads = set()

    def __getattr__(self, name):
        self._reads.add(name)
        return getattr(self._target, name)


def test_fast_engine_reads_every_simulator_knob(small_network, random_workload):
    """A knob the fast engine never reads would silently split the engines."""
    params = set(inspect.signature(Simulator.__init__).parameters)
    assert params - {"self", "engine"} == set(KNOB_ATTRIBUTES)
    workload = random_workload(small_network, 5, num_requests=300, num_objects=20)
    sim = Simulator(
        small_network, EDGE_COOP, workload, [2.0] * small_network.num_nodes,
        capacity=CapacityModel(per_window=3, window=50),
        warmup_fraction=0.2, observer=Observer(),
    )
    proxy = _RecordingSimulator(sim)
    FastEngine(proxy).run()
    unread = {
        knob: attr
        for knob, attr in KNOB_ATTRIBUTES.items()
        if attr not in proxy._reads
    }
    assert not unread


def test_from_counters_fills_every_result_field():
    """Both engines finalize through from_counters; no field may default."""
    passed = {}
    signature = inspect.signature(SimulationResult)

    class Capture(SimulationResult):
        def __init__(self, *args, **kwargs):
            passed.update(signature.bind(*args, **kwargs).arguments)

    Capture.from_counters(
        architecture="X", num_requests=0, total_latency=0.0,
        link_transfers=[], origin_serves=[], cache_served=0, coop_served=0,
    )
    assert set(passed) == {field.name for field in fields(SimulationResult)}


def test_every_policy_has_a_fast_twin():
    assert set(REFERENCE_POLICIES) == set(_FAST_POLICIES)


@pytest.mark.parametrize(
    "struct", [*_FAST_POLICIES.values(), FastInfinite], ids=lambda s: s.__name__
)
def test_fast_struct_interface(struct):
    missing = [
        name for name in FAST_STRUCT_METHODS
        if not callable(getattr(struct, name, None))
    ]
    assert not missing

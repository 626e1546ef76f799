"""Experiment orchestration: one config, many architectures, one workload.

This is the layer the benchmarks drive.  An :class:`ExperimentConfig`
captures every knob the paper varies (topology, tree shape, Zipf alpha,
spatial skew, budget fraction and split, latency model, policy, serving
capacity, object sizes); :func:`run_experiment` builds the network and a
single shared workload, runs the no-cache baseline plus each requested
architecture over it, and returns normalized improvements.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..cache.budget import node_budgets
from ..topology.access_tree import AccessTree
from ..topology.datasets import topology as load_topology
from ..topology.network import Network
from ..topology.pop import PopTopology
from ..workload.generator import (
    Workload,
    generate_workload,
    workload_from_objects,
)
from ..workload.sizes import lognormal_sizes, normalized_sizes
from ..workload.stream import (
    DEFAULT_CHUNK_SIZE,
    StreamingWorkload,
    pop_shard,
    stream_workload,
)
from .architectures import NO_CACHE, Architecture, BASELINE_ARCHITECTURES
from .capacity import CapacityModel
from .engine import Simulator
from .latency import hop_costs as build_hop_costs
from .metrics import Improvements, SimulationResult, gap, improvements

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.sink import Observer

#: Best-fit exponent of the Asia CDN trace, the paper's baseline workload.
ASIA_ALPHA = 1.04


@dataclass(frozen=True)
class ExperimentConfig:
    """All simulation knobs with the paper's Section 4 baseline defaults."""

    topology: str = "att"
    arity: int = 2
    tree_depth: int = 5
    num_objects: int = 2_000
    num_requests: int = 400_000
    alpha: float = ASIA_ALPHA
    spatial_skew: float = 0.0
    budget_fraction: float = 0.05
    budget_split: str = "proportional"
    origin_mode: str = "proportional"
    policy: str = "lru"
    latency_model: str = "unit"
    core_latency_factor: float = 4.0
    heterogeneous_sizes: bool = False
    capacity: CapacityModel | None = None
    warmup_fraction: float = 0.2
    seed: int = 2013

    def with_(self, **changes: object) -> "ExperimentConfig":
        """A modified copy (sweep helper)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ExperimentResult:
    """Baseline plus per-architecture results for one configuration."""

    config: ExperimentConfig
    baseline: SimulationResult
    results: dict[str, SimulationResult] = field(default_factory=dict)
    improvements: dict[str, Improvements] = field(default_factory=dict)

    def gap(self, a: str = "ICN-NR", b: str = "EDGE") -> Improvements:
        """Per-metric improvement gap between two architectures."""
        return gap(self.improvements[a], self.improvements[b])


def build_network(config: ExperimentConfig,
                  pop_topology: PopTopology | None = None) -> Network:
    """Instantiate the router-level network for a configuration."""
    if pop_topology is None:
        pop_topology = load_topology(config.topology)
    tree = AccessTree(arity=config.arity, depth=config.tree_depth)
    return Network(pop_topology, tree)


def build_workload(
    config: ExperimentConfig,
    network: Network,
    objects: np.ndarray | None = None,
) -> Workload:
    """Generate (or wrap) the request stream for a configuration.

    Pass ``objects`` to run trace-driven: the object sequence comes from
    a log, while arrivals and origins follow the configured models.
    """
    rng = np.random.default_rng(config.seed)
    sizes = None
    if config.heterogeneous_sizes:
        sizes = normalized_sizes(lognormal_sizes(config.num_objects, rng))
    if objects is not None:
        return workload_from_objects(
            network,
            objects,
            config.num_objects,
            rng,
            sizes=sizes,
            origin_mode=config.origin_mode,
        )
    return generate_workload(
        network,
        config.num_objects,
        config.num_requests,
        config.alpha,
        rng,
        spatial_skew=config.spatial_skew,
        sizes=sizes,
        origin_mode=config.origin_mode,
    )


def build_streaming_workload(
    config: ExperimentConfig,
    network: Network,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> StreamingWorkload:
    """Streaming twin of :func:`build_workload` (generated workloads).

    Consumes ``config.seed`` exactly as :func:`build_workload` does, so
    the chunked stream is bit-identical to the materialized workload's
    request columns while peak memory stays O(catalog + chunk).
    """
    rng = np.random.default_rng(config.seed)
    sizes = None
    if config.heterogeneous_sizes:
        sizes = normalized_sizes(lognormal_sizes(config.num_objects, rng))
    return stream_workload(
        network,
        config.num_objects,
        config.num_requests,
        config.alpha,
        rng,
        spatial_skew=config.spatial_skew,
        sizes=sizes,
        origin_mode=config.origin_mode,
        chunk_size=chunk_size,
    )


def _run_architectures(
    config: ExperimentConfig,
    network: Network,
    workload: "Workload | StreamingWorkload",
    architectures: Iterable[Architecture],
    engine: str,
    observer: "Observer | None",
) -> ExperimentResult:
    """Shared experiment body: no-cache baseline plus each architecture.

    Both the materialized (:func:`run_experiment`) and streamed
    (:func:`run_streamed_experiment`) fronts funnel through here, so
    the two paths cannot drift apart in how runs are wired.  The
    baseline is the :data:`~repro.core.architectures.NO_CACHE` design,
    run like any other.
    """
    costs = build_hop_costs(
        network, config.latency_model, config.core_latency_factor
    )
    budgets = node_budgets(
        network, config.budget_fraction, config.num_objects, config.budget_split
    )

    def run(architecture: Architecture) -> SimulationResult:
        return Simulator(
            network,
            architecture,
            workload,
            budgets,
            policy=config.policy,
            hop_costs=costs,
            capacity=config.capacity,
            warmup_fraction=config.warmup_fraction,
            engine=engine,
            observer=observer,
        ).run()

    baseline = run(NO_CACHE)
    results = {architecture.name: run(architecture) for architecture in architectures}
    improved = {
        name: improvements(result, baseline) for name, result in results.items()
    }
    return ExperimentResult(
        config=config, baseline=baseline, results=results, improvements=improved
    )


def run_experiment(
    config: ExperimentConfig,
    architectures: Iterable[Architecture] = BASELINE_ARCHITECTURES,
    objects: np.ndarray | None = None,
    pop_topology: PopTopology | None = None,
    engine: str = "reference",
    observer: "Observer | None" = None,
) -> ExperimentResult:
    """Run the baseline and every architecture over one shared workload.

    ``engine`` selects the simulation engine ("reference" or "fast");
    both produce identical results, so it only changes wall-clock time.
    ``observer`` attaches an optional :class:`repro.obs.Observer` to the
    baseline and every architecture run (observation never changes
    simulated numbers).
    """
    network = build_network(config, pop_topology)
    workload = build_workload(config, network, objects=objects)
    return _run_architectures(
        config, network, workload, architectures, engine, observer
    )


def run_streamed_experiment(
    config: ExperimentConfig,
    architectures: Iterable[Architecture] = BASELINE_ARCHITECTURES,
    shard: tuple[int, int] | None = None,
    pop_topology: PopTopology | None = None,
    engine: str = "fast",
    observer: "Observer | None" = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> ExperimentResult:
    """Streamed twin of :func:`run_experiment`: same numbers, O(chunk) memory.

    The request stream is regenerated chunk by chunk from
    ``config.seed`` instead of materialized, so results are
    field-for-field identical to :func:`run_experiment` on the same
    config while the request columns never exist in full.

    ``shard=(i, n)`` restricts the run to the sub-stream of requests
    arriving at PoPs with ``pop % n == i`` — the unit :func:`repro.core.sweep.shard_points`
    distributes across sweep workers.  Each worker regenerates the
    seed-derived stream and filters it locally, so no request arrays
    ever cross a process boundary; the shards partition the stream
    exactly, and at ``warmup_fraction=0`` their merged no-cache
    baselines (:func:`repro.core.metrics.merge_results`) equal the
    whole-stream baseline bit for bit.
    """
    network = build_network(config, pop_topology)
    workload: StreamingWorkload = build_streaming_workload(
        config, network, chunk_size=chunk_size
    )
    if shard is not None:
        index, num_shards = shard
        workload = pop_shard(workload, index, num_shards)
    return _run_architectures(
        config, network, workload, architectures, engine, observer
    )


def performance_gap(
    config: ExperimentConfig,
    arch_a: Architecture,
    arch_b: Architecture,
    objects: np.ndarray | None = None,
) -> Improvements:
    """Convenience: run just two architectures and return their gap."""
    outcome = run_experiment(config, (arch_a, arch_b), objects=objects)
    return outcome.gap(arch_a.name, arch_b.name)

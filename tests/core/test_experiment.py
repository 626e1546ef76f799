"""Tests for experiment orchestration."""

import numpy as np
import pytest

from repro.core import (
    EDGE,
    ICN_NR,
    ExperimentConfig,
    build_network,
    build_workload,
    performance_gap,
    run_experiment,
)

FAST = dict(
    topology="abilene",
    num_objects=200,
    num_requests=6000,
    warmup_fraction=0.25,
    seed=11,
)


class TestConfig:
    def test_defaults_match_paper_baseline(self):
        config = ExperimentConfig()
        assert config.arity == 2
        assert config.tree_depth == 5
        assert config.budget_fraction == 0.05
        assert config.alpha == 1.04  # the Asia trace fit
        assert config.policy == "lru"

    def test_with_creates_modified_copy(self):
        config = ExperimentConfig()
        changed = config.with_(alpha=0.5)
        assert changed.alpha == 0.5
        assert config.alpha == 1.04


class TestBuilders:
    def test_build_network_shape(self):
        config = ExperimentConfig(topology="abilene", arity=2, tree_depth=3)
        network = build_network(config)
        assert network.num_pops == 11
        assert network.tree_size == 15

    def test_build_workload_respects_config(self):
        config = ExperimentConfig(**FAST)
        network = build_network(config)
        workload = build_workload(config, network)
        assert workload.num_requests == 6000
        assert workload.num_objects == 200

    def test_heterogeneous_sizes_mean_one(self):
        config = ExperimentConfig(**FAST).with_(heterogeneous_sizes=True)
        network = build_network(config)
        workload = build_workload(config, network)
        assert workload.sizes.mean() == pytest.approx(1.0)
        assert workload.sizes.std() > 0.1

    def test_trace_driven_workload(self):
        config = ExperimentConfig(**FAST)
        network = build_network(config)
        objects = np.zeros(100, dtype=np.int64)
        workload = build_workload(config, network, objects=objects)
        assert workload.num_requests == 100


class TestRunExperiment:
    def test_same_workload_for_all_architectures(self):
        config = ExperimentConfig(**FAST)
        outcome = run_experiment(config, (ICN_NR, EDGE))
        assert set(outcome.results) == {"ICN-NR", "EDGE"}
        assert (
            outcome.results["ICN-NR"].num_requests
            == outcome.results["EDGE"].num_requests
            == outcome.baseline.num_requests
        )

    def test_caching_always_beats_no_caching(self):
        config = ExperimentConfig(**FAST)
        outcome = run_experiment(config, (ICN_NR, EDGE))
        for improvement in outcome.improvements.values():
            assert improvement.latency > 0
            assert improvement.congestion > 0
            assert improvement.origin_load > 0

    def test_gap_accessor(self):
        config = ExperimentConfig(**FAST)
        outcome = run_experiment(config, (ICN_NR, EDGE))
        gap = outcome.gap()
        assert gap.latency == pytest.approx(
            outcome.improvements["ICN-NR"].latency
            - outcome.improvements["EDGE"].latency
        )

    def test_deterministic_given_seed(self):
        config = ExperimentConfig(**FAST)
        a = run_experiment(config, (EDGE,))
        b = run_experiment(config, (EDGE,))
        assert a.results["EDGE"].total_latency == b.results["EDGE"].total_latency

    def test_performance_gap_shortcut(self):
        config = ExperimentConfig(**FAST)
        gap = performance_gap(config, ICN_NR, EDGE)
        full = run_experiment(config, (ICN_NR, EDGE)).gap()
        assert gap.latency == pytest.approx(full.latency)

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_nan_budget_fraction_rejected(self, engine):
        config = ExperimentConfig(**FAST, budget_fraction=float("nan"))
        with pytest.raises(ValueError, match="fraction"):
            run_experiment(config, (EDGE,), engine=engine)

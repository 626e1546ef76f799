"""Scenario tests for the request-level simulation engine."""

import numpy as np
import pytest

from repro.core import (
    EDGE,
    EDGE_COOP,
    EDGE_INF,
    ICN_NR,
    ICN_NR_GLOBAL,
    ICN_SP,
    NO_CACHE,
    Architecture,
    CapacityModel,
    Simulator,
    simulate_no_cache,
)
from repro.workload import Workload


def make_workload(requests, origins, num_objects=None, sizes=None):
    """Build a workload from explicit (pop, leaf_local, obj) triples."""
    if num_objects is None:
        num_objects = len(origins)
    pops, leaves, objects = (
        np.array([r[i] for r in requests], dtype=np.int64) for i in range(3)
    )
    return Workload(
        num_objects=num_objects,
        pops=pops,
        leaves=leaves,
        objects=objects,
        sizes=np.ones(num_objects) if sizes is None else np.asarray(sizes,
                                                                    float),
        origins=np.array(origins, dtype=np.int64),
    )


def run(network, architecture, workload, budget=10.0, **kwargs):
    budgets = [budget] * network.num_nodes
    simulator = Simulator(network, architecture, workload, budgets, **kwargs)
    return simulator.run(), simulator


class TestEdgeBasics:
    def test_first_request_goes_to_origin(self, small_network):
        # Object 0 originates at pop 3; request from pop 0, leaf 3.
        workload = make_workload([(0, 3, 0)], origins=[3])
        result, _ = run(small_network, EDGE, workload)
        leaf = small_network.gid(0, 3)
        origin_root = small_network.root_gid(3)
        assert result.total_latency == small_network.distance(leaf, origin_root)
        assert result.max_origin_load == 1.0
        assert result.cache_served == 0

    def test_repeat_at_same_leaf_is_free(self, small_network):
        workload = make_workload([(0, 3, 0), (0, 3, 0)], origins=[3])
        result, _ = run(small_network, EDGE, workload)
        assert result.cache_served == 1
        # Second request served at distance 0.
        leaf = small_network.gid(0, 3)
        expected = small_network.distance(leaf, small_network.root_gid(3))
        assert result.total_latency == expected

    def test_repeat_at_different_leaf_misses_in_edge(self, small_network):
        workload = make_workload([(0, 3, 0), (0, 4, 0)], origins=[3])
        result, _ = run(small_network, EDGE, workload)
        assert result.cache_served == 0
        assert result.max_origin_load == 2.0

    def test_own_pop_origin_served_at_root(self, small_network):
        workload = make_workload([(2, 5, 0)], origins=[2])
        result, _ = run(small_network, EDGE, workload)
        assert result.total_latency == 2.0
        assert result.origin_serves[2] == 1.0


class TestResponsePathCaching:
    def test_icn_sp_caches_along_path(self, small_network):
        # After leaf 3 fetches, leaf 4 hits at their shared parent (1 hop
        # up, 2 hops total distance from leaf 4... parent is 1 hop).
        workload = make_workload([(0, 3, 0), (0, 4, 0)], origins=[3])
        result, sim = run(small_network, ICN_SP, workload)
        assert result.cache_served == 1
        # Leaf 4's parent (local 1) holds the object after request 1.
        parent = small_network.gid(0, 1)
        assert 0 in sim.caches[parent]
        # Second request latency: 1 hop to the parent.
        leaf = small_network.gid(0, 3)
        first = small_network.distance(leaf, small_network.root_gid(3))
        assert result.total_latency == first + 1

    def test_edge_does_not_cache_interior(self, small_network):
        workload = make_workload([(0, 3, 0)], origins=[3])
        _, sim = run(small_network, EDGE, workload)
        assert small_network.gid(0, 1) not in sim.caches

    def test_transit_pop_root_caches_in_icn(self, small_network):
        # Request from pop 1 for content at pop 2 transits pop 0 (or 3).
        workload = make_workload([(1, 3, 0)], origins=[2])
        _, sim = run(small_network, ICN_SP, workload)
        transit_pops = small_network.core_path(1, 2)[1:-1]
        assert all(
            0 in sim.caches[small_network.root_gid(p)] for p in transit_pops
        )


class TestCooperation:
    def test_sibling_serves_at_distance_two(self, small_network):
        workload = make_workload([(0, 3, 0), (0, 4, 0)], origins=[3])
        result, _ = run(small_network, EDGE_COOP, workload)
        assert result.coop_served == 1
        leaf3 = small_network.gid(0, 3)
        first = small_network.distance(leaf3, small_network.root_gid(3))
        assert result.total_latency == first + 2

    def test_non_siblings_do_not_cooperate(self, small_network):
        # Leaves 3 and 5 are cousins, not siblings.
        workload = make_workload([(0, 3, 0), (0, 5, 0)], origins=[3])
        result, _ = run(small_network, EDGE_COOP, workload)
        assert result.coop_served == 0
        assert result.max_origin_load == 2.0


class TestScopedNearestReplica:
    def test_ancestor_replica_preferred_over_origin(self, small_network):
        workload = make_workload([(0, 3, 0), (0, 4, 0)], origins=[3])
        result, _ = run(small_network, ICN_NR, workload)
        assert result.cache_served == 1
        leaf3 = small_network.gid(0, 3)
        first = small_network.distance(leaf3, small_network.root_gid(3))
        # Nearest scoped replica for leaf 4 is the shared parent at 1 hop.
        assert result.total_latency == first + 1

    def test_sibling_of_path_node_in_scope(self, small_network):
        # Leaf 5's path: 5 -> 2 -> 0; leaf 6 is 5's sibling at distance 2,
        # closer than the origin root of pop 3 (2 + core).
        workload = make_workload([(2, 6, 0), (2, 5, 0)], origins=[3])
        result, _ = run(small_network, ICN_NR, workload)
        assert result.cache_served >= 1

    def test_own_origin_closer_than_scope_tail(self, small_network):
        # Object owned by the request's own pop: the origin at the root
        # (distance 2) must win against any equal-or-farther candidate.
        workload = make_workload([(1, 3, 0)], origins=[1])
        result, _ = run(small_network, ICN_NR, workload)
        assert result.total_latency == 2.0
        assert result.origin_serves[1] == 1.0


class TestGlobalNearestReplica:
    def test_remote_replica_used_when_closer(self, small_network):
        # Pop 1 fetches object owned by pop 2 (cross-core); then a pop 0
        # request finds the replica at pop 1's root (distance 2+1) vs
        # origin pop 2 root (distance 2+1): tie -> replica preferred.
        workload = make_workload([(1, 3, 0), (0, 3, 0)], origins=[2])
        result, sim = run(small_network, ICN_NR_GLOBAL, workload)
        assert result.origin_serves[2] == 1.0
        assert result.cache_served == 1

    def test_directory_consistent_with_caches(self, small_network, rng):
        from repro.workload import generate_workload

        workload = generate_workload(small_network, 50, 2000, 1.0, rng)
        _, sim = run(small_network, ICN_NR_GLOBAL, workload, budget=5.0)
        for node, cache in sim.caches.items():
            for obj in cache:
                assert node in sim.directory.holders(obj)
        for obj in range(50):
            for holder in sim.directory.holders(obj):
                assert obj in sim.caches[holder]


class TestCapacity:
    def test_overloaded_leaf_redirects_to_origin(self, small_network):
        workload = make_workload([(0, 3, 0)] * 4, origins=[3])
        result, sim = run(
            small_network,
            EDGE,
            workload,
            capacity=CapacityModel(per_window=2, window=1000),
        )
        # Request 1 -> origin (miss); 2 and 3 -> leaf hits; 4 -> leaf
        # overloaded (2 serves used), redirected to origin.
        assert result.max_origin_load == 2.0
        assert sim.capacity_rejections == 1

    def test_no_capacity_means_no_rejections(self, small_network):
        workload = make_workload([(0, 3, 0)] * 4, origins=[3])
        _, sim = run(small_network, EDGE, workload)
        assert sim.capacity_rejections == 0


class TestSizesAndWarmup:
    def test_heterogeneous_sizes_weight_congestion(self, small_network):
        workload = make_workload(
            [(0, 3, 0)], origins=[3], sizes=[2.5]
        )
        result, _ = run(small_network, EDGE, workload)
        assert result.max_link_transfers == 2.5

    def test_warmup_excludes_early_requests(self, small_network):
        workload = make_workload([(0, 3, 0)] * 10, origins=[3])
        result, _ = run(small_network, EDGE, workload, warmup_fraction=0.5)
        assert result.num_requests == 5
        # All measured requests are warm hits.
        assert result.cache_served == 5
        assert result.total_latency == 0.0

    def test_invalid_warmup_rejected(self, small_network):
        workload = make_workload([(0, 3, 0)], origins=[3])
        with pytest.raises(ValueError):
            run(small_network, EDGE, workload, warmup_fraction=1.0)

    def test_budget_length_validated(self, small_network):
        workload = make_workload([(0, 3, 0)], origins=[3])
        with pytest.raises(ValueError):
            Simulator(small_network, EDGE, workload, budgets=[1.0])

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("case", ["EDGE-Inf", "NO-CACHE", "EDGE-all-failed"])
    def test_unknown_policy_rejected_without_finite_caches(
        self, small_network, engine, case
    ):
        """The policy is checked even when no finite cache gets built."""
        workload = make_workload([(0, 3, 0), (1, 4, 0)], origins=[3])
        arch, failed = {
            "EDGE-Inf": (EDGE_INF, ()),
            "NO-CACHE": (NO_CACHE, ()),
            "EDGE-all-failed": (EDGE, [
                small_network.gid(pop, leaf)
                for pop in range(small_network.num_pops)
                for leaf in small_network.tree.leaves
            ]),
        }[case]
        with pytest.raises(ValueError, match="unknown policy 'bogus'"):
            run(small_network, arch, workload, policy="bogus",
                failed_nodes=failed, engine=engine)


class TestNoCacheBaseline:
    def test_every_request_hits_its_origin(self, small_network):
        workload = make_workload(
            [(0, 3, 0), (1, 4, 1), (0, 3, 0)], origins=[3, 0]
        )
        result = simulate_no_cache(small_network, workload)
        assert result.total_origin_load == 3.0
        assert result.origin_serves[3] == 2.0
        assert result.cache_served == 0

    def test_latency_is_path_length(self, small_network):
        workload = make_workload([(0, 3, 0)], origins=[3])
        result = simulate_no_cache(small_network, workload)
        leaf = small_network.gid(0, 3)
        assert result.total_latency == small_network.distance(
            leaf, small_network.root_gid(3)
        )

    def test_infinite_architecture_has_unbounded_caches(self, small_network):
        workload = make_workload([(0, 3, 0)], origins=[3])
        arch = Architecture("inf", placement="edge", infinite=True)
        _, sim = run(small_network, arch, workload, budget=0.0)
        leaf = small_network.gid(0, 3)
        assert 0 in sim.caches[leaf]

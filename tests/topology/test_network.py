"""Tests for the composite router-level network and its oracles."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.topology import AccessTree, HopCosts, Network, Pop, PopTopology


class TestNodeIds:
    def test_counts(self, small_network):
        assert small_network.tree_size == 7
        assert small_network.num_nodes == 28
        assert small_network.num_core_links == 4
        assert small_network.num_links == 32

    def test_gid_roundtrip(self, small_network):
        for pop in range(4):
            for local in range(7):
                gid = small_network.gid(pop, local)
                assert small_network.pop_of(gid) == pop
                assert small_network.local_of(gid) == local

    def test_root_gid_is_pop_node(self, small_network):
        assert small_network.root_gid(2) == 14
        assert small_network.depth_of(14) == 0

    def test_leaf_gids(self, small_network):
        leaves = list(small_network.leaf_gids(1))
        assert leaves == [10, 11, 12, 13]
        assert all(small_network.depth_of(g) == 2 for g in leaves)


class TestCorePaths:
    def test_core_distance_diamond(self, small_network):
        assert small_network.core_distance(0, 0) == 0
        assert small_network.core_distance(0, 3) == 2
        assert small_network.core_distance(1, 2) == 2

    def test_core_path_endpoints(self, small_network):
        path = small_network.core_path(0, 3)
        assert path[0] == 0
        assert path[-1] == 3
        assert len(path) == 3

    def test_core_path_links_length(self, small_network):
        links = small_network.core_path_links(0, 3)
        assert len(links) == 2
        assert all(link >= small_network.num_nodes for link in links)

    def test_core_path_to_self_is_trivial(self, small_network):
        assert small_network.core_path(2, 2) == (2,)
        assert small_network.core_path_links(2, 2) == ()


class TestDistancesAndPaths:
    def test_same_pop_distance_is_tree_distance(self, small_network):
        a = small_network.gid(1, 3)
        b = small_network.gid(1, 4)
        assert small_network.distance(a, b) == 2

    def test_cross_pop_distance(self, small_network):
        a = small_network.gid(0, 3)  # leaf, depth 2
        b = small_network.gid(3, 0)  # root of pop 3
        assert small_network.distance(a, b) == 2 + 2 + 0

    def test_path_nodes_matches_distance(self, small_network):
        a = small_network.gid(0, 3)
        b = small_network.gid(3, 5)
        path = small_network.path_nodes(a, b)
        assert path[0] == a
        assert path[-1] == b
        assert len(path) == small_network.distance(a, b) + 1

    def test_path_links_count_matches_distance(self, small_network):
        a = small_network.gid(0, 3)
        b = small_network.gid(3, 5)
        links = small_network.path_links(a, b)
        assert len(links) == small_network.distance(a, b)
        assert len(set(links)) == len(links)

    def test_chain_to_root(self, small_network):
        chain = small_network.chain_to_root(small_network.gid(2, 5))
        assert chain == [19, 16, 14]

    def test_unit_path_cost_equals_distance(self, small_network):
        costs = small_network.unit_hop_costs()
        a = small_network.gid(0, 3)
        for b in [small_network.gid(0, 4), small_network.gid(3, 6),
                  small_network.gid(2, 0)]:
            assert small_network.path_cost(a, b, costs) == pytest.approx(
                small_network.distance(a, b)
            )

    def test_custom_hop_costs(self, small_network):
        # Tree hops cost 1 but core hops cost 10.
        costs = HopCosts(
            tree_to_root=tuple(
                float(small_network.tree.depth_of(i)) for i in range(7)
            ),
            core_hop=10.0,
        )
        a = small_network.gid(0, 3)
        b = small_network.root_gid(3)
        assert small_network.path_cost(a, b, costs) == pytest.approx(2 + 20)


# ---------------------------------------------------------------------------
# Property-based consistency between the three path oracles
# ---------------------------------------------------------------------------


def _chain_network(num_pops, extra_edges, arity, depth):
    """PoPs in a line plus ``extra_edges``, with a k-ary tree per PoP."""
    edges = {(i, i + 1) for i in range(num_pops - 1)}
    for a, b in extra_edges:
        if a != b:
            edges.add((min(a, b), max(a, b)))
    topo = PopTopology(
        name="h",
        pops=tuple(Pop(i, f"p{i}", 100 + i) for i in range(num_pops)),
        edges=tuple(sorted(edges)),
    )
    return Network(topo, AccessTree(arity=arity, depth=depth))


@st.composite
def network_and_nodes(draw):
    num_pops = draw(st.integers(min_value=2, max_value=5))
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_pops - 1), st.integers(0, num_pops - 1)
            ),
            max_size=4,
        )
    )
    network = _chain_network(
        num_pops, extra, draw(st.integers(2, 3)), draw(st.integers(1, 3))
    )
    a = draw(st.integers(0, network.num_nodes - 1))
    b = draw(st.integers(0, network.num_nodes - 1))
    return network, a, b


#: Leaf of the last PoP to a leaf of the first on a 5-PoP line: three
#: transit roots, so a transit-order bug cannot hide behind short paths.
_LINE = _chain_network(5, [], 2, 2)
_DEEP_TRANSIT = (_LINE, _LINE.num_nodes - 1, 3)


def _hop_link(network, u, v):
    """Link id of the hop between ``u`` and ``v``; fails if not adjacent."""
    ts = network.tree_size
    pop_u, pop_v = u // ts, v // ts
    if pop_u == pop_v:
        local_u, local_v = u % ts, v % ts
        if local_v and network.tree.parent(local_v) == local_u:
            return v  # descending tree hop: the child is v
        assert local_u and network.tree.parent(local_u) == local_v
        return u  # ascending tree hop: the child is u
    assert u % ts == 0 and v % ts == 0, "core hops join PoP roots"
    edges = [set(edge) for edge in network.pop_topology.edges]
    assert {pop_u, pop_v} in edges, "core hops follow core links"
    return network.num_nodes + edges.index({pop_u, pop_v})


def _parent_walk(network, node):
    walk = [node]
    while network.local_of(walk[-1]):
        pop, local = network.pop_of(walk[-1]), network.local_of(walk[-1])
        walk.append(network.gid(pop, network.tree.parent(local)))
    return walk


@settings(max_examples=60, deadline=None)
@given(network_and_nodes())
@example(_DEEP_TRANSIT)
def test_paths_links_costs_agree(case):
    network, a, b = case
    distance = network.distance(a, b)
    path = network.path_nodes(a, b)
    links = network.path_links(a, b)
    cost = network.path_cost(a, b, network.unit_hop_costs())
    assert len(path) == distance + 1
    assert len(links) == distance
    assert cost == pytest.approx(distance)
    assert path[0] == a and path[-1] == b
    # The exact sequences: every hop joins adjacent nodes, and link i is
    # the link of hop i, in path order.
    hop_links = [_hop_link(network, u, v) for u, v in zip(path, path[1:])]
    assert links == hop_links
    for node in (a, b):
        assert network.chain_to_root(node) == _parent_walk(network, node)
    # The oracles hand out fresh lists: mutating one leaves the next
    # answer intact.
    path.reverse()
    links.clear()
    assert network.path_nodes(a, b) == path[::-1]
    assert network.path_links(a, b) == hop_links


@settings(max_examples=60, deadline=None)
@given(network_and_nodes())
def test_distance_symmetry(case):
    network, a, b = case
    assert network.distance(a, b) == network.distance(b, a)

"""Composite router-level network: a PoP map with an access tree per PoP.

Global node ids are ``pop_index * tree.size + local_index`` where
``local_index`` is the BFS index inside that PoP's access tree; the tree
root (local 0) *is* the PoP node, which doubles as the origin server for
the objects that PoP owns (Section 4.1).

Links get dense integer ids so per-link congestion counters are plain
arrays:

* the tree link above node ``g`` (``g`` not a tree root) has id ``g``;
* core link number ``e`` has id ``num_nodes + e``.

All shortest paths are precomputed: core-network APSP by BFS (hop
metric, as in the paper) and in-tree paths by k-ary index arithmetic, so
the simulator never searches the graph per request.  The node and link
oracles concatenate global-id tuples kept on the network and filled on
first use: each node's chain to its PoP root (and root-first), each
chain's tree links, and the transit roots between each pair of PoPs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .access_tree import AccessTree
from .pop import PopTopology


@dataclass(frozen=True)
class HopCosts:
    """Per-hop latency costs, precomputed for one latency model.

    ``tree_to_root[local]`` is the total cost from tree-local node
    ``local`` up to its PoP root; ``core_hop`` is the cost of one core
    link.  The default unit model makes every hop cost 1.
    """

    tree_to_root: tuple[float, ...]
    core_hop: float


class Network:
    """Router-level network with O(1) distance and path oracles."""

    def __init__(self, pop_topology: PopTopology, tree: AccessTree):
        self.pop_topology = pop_topology
        self.tree = tree
        self.num_pops = pop_topology.num_pops
        self.tree_size = tree.size
        self.num_nodes = self.num_pops * self.tree_size
        self.num_core_links = pop_topology.num_edges
        self.num_links = self.num_nodes + self.num_core_links

        self._core_edge_index = {
            (min(a, b), max(a, b)): e for e, (a, b) in enumerate(pop_topology.edges)
        }
        self._core_dist, self._core_next = self._all_pairs_bfs()
        self._core_paths = self._materialize_core_paths()
        self._core_path_links = self._materialize_core_path_links()
        # Tree-local path-to-root chains (node included, root included).
        self._chain = tuple(
            tuple(tree.path_to_root(local)) for local in range(tree.size)
        )
        # Global-id path tables, filled on first use so that building a
        # network stays cheap.  Per node: its chain up to the PoP root and
        # that chain's tree links (see _fill_up), the chain root-first and
        # its tree links (see _fill_down).  Per PoP pair, at index
        # ``pop_a * num_pops + pop_b``: the transit PoP roots strictly
        # between them (see _fill_transit).
        n = self.num_nodes
        self._up_nodes: list[tuple[int, ...] | None] = [None] * n
        self._up_links: list[tuple[int, ...] | None] = [None] * n
        self._down_nodes: list[tuple[int, ...] | None] = [None] * n
        self._down_links: list[tuple[int, ...] | None] = [None] * n
        self._transit: list[tuple[int, ...] | None] = [None] * self.num_pops**2

    # ------------------------------------------------------------------
    # Node id helpers
    # ------------------------------------------------------------------
    def gid(self, pop: int, local: int) -> int:
        """Global node id for tree-local node ``local`` of PoP ``pop``."""
        return pop * self.tree_size + local

    def pop_of(self, node: int) -> int:
        """PoP index owning global node ``node``."""
        return node // self.tree_size

    def local_of(self, node: int) -> int:
        """Tree-local index of global node ``node``."""
        return node % self.tree_size

    def root_gid(self, pop: int) -> int:
        """Global id of PoP ``pop``'s tree root (the PoP node itself)."""
        return pop * self.tree_size

    def depth_of(self, node: int) -> int:
        """Tree depth of global node ``node`` (PoP roots are depth 0)."""
        return self.tree.depth_of(node % self.tree_size)

    def leaf_gids(self, pop: int) -> range:
        """Global ids of the access-tree leaves of PoP ``pop``."""
        base = pop * self.tree_size
        leaves = self.tree.leaves
        return range(base + leaves.start, base + leaves.stop)

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def core_distance(self, pop_a: int, pop_b: int) -> int:
        """Hop distance between two PoPs on the core network."""
        return self._core_dist[pop_a][pop_b]

    def core_path(self, pop_a: int, pop_b: int) -> tuple[int, ...]:
        """PoP sequence of the shortest core path, inclusive of endpoints."""
        return self._core_paths[pop_a][pop_b]

    def core_path_links(self, pop_a: int, pop_b: int) -> tuple[int, ...]:
        """Link ids of the shortest core path between two PoPs."""
        return self._core_path_links[pop_a][pop_b]

    def distance(self, a: int, b: int) -> int:
        """Hop distance between any two global nodes.

        Inside one PoP this is the tree distance; across PoPs every path
        must climb to the local root, cross the core, and descend.
        """
        pop_a, pop_b = a // self.tree_size, b // self.tree_size
        if pop_a == pop_b:
            return self.tree.distance(a % self.tree_size, b % self.tree_size)
        return (
            self.tree.depth_of(a % self.tree_size)
            + self._core_dist[pop_a][pop_b]
            + self.tree.depth_of(b % self.tree_size)
        )

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def chain_to_root(self, node: int) -> list[int]:
        """Global node sequence from ``node`` up to its PoP root, inclusive."""
        up = self._up_nodes[node]
        if up is None:
            up = self._fill_up(node)[0]
        return list(up)

    def path_nodes(self, a: int, b: int) -> list[int]:
        """Global node sequence of the shortest path from ``a`` to ``b``."""
        ts = self.tree_size
        pop_a, pop_b = a // ts, b // ts
        up = self._up_nodes[a]
        if up is None:
            up = self._fill_up(a)[0]
        down = self._down_nodes[b]
        if down is None:
            down = self._fill_down(b)[0]
        if pop_a == pop_b:
            # Climb to the lowest common ancestor, then descend from it.
            lca_depth = len(self._chain[self.tree.lca(a % ts, b % ts)]) - 1
            return [*up[: len(up) - lca_depth], *down[lca_depth + 1 :]]
        transit = self._transit[pop_a * self.num_pops + pop_b]
        if transit is None:
            transit = self._fill_transit(pop_a, pop_b)
        return [*up, *transit, *down]

    def path_links(self, a: int, b: int) -> list[int]:
        """Link ids along the shortest path from ``a`` to ``b``, in path order.

        Entry ``i`` is the link between ``path_nodes(a, b)[i]`` and
        ``[i + 1]``: a tree link is identified by its child endpoint's
        global id, a core link by ``num_nodes + edge_index``.
        """
        ts = self.tree_size
        pop_a, pop_b = a // ts, b // ts
        up = self._up_links[a]
        if up is None:
            up = self._fill_up(a)[1]
        down = self._down_links[b]
        if down is None:
            down = self._fill_down(b)[1]
        if pop_a == pop_b:
            lca_depth = len(self._chain[self.tree.lca(a % ts, b % ts)]) - 1
            return [*up[: len(up) - lca_depth], *down[lca_depth:]]
        return [*up, *self._core_path_links[pop_a][pop_b], *down]

    def path_cost(self, a: int, b: int, costs: HopCosts) -> float:
        """Latency of the shortest ``a``–``b`` path under a hop-cost model."""
        pop_a, pop_b = a // self.tree_size, b // self.tree_size
        to_root = costs.tree_to_root
        if pop_a == pop_b:
            local_a, local_b = a % self.tree_size, b % self.tree_size
            lca = self.tree.lca(local_a, local_b)
            return (to_root[local_a] - to_root[lca]) + (to_root[local_b] - to_root[lca])
        return (
            to_root[a % self.tree_size]
            + self._core_dist[pop_a][pop_b] * costs.core_hop
            + to_root[b % self.tree_size]
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _fill_up(self, node: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Fill and return ``node``'s chain to its PoP root and its links."""
        base = node - node % self.tree_size
        nodes = tuple(base + local for local in self._chain[node - base])
        links = nodes[:-1]
        self._up_nodes[node] = nodes
        self._up_links[node] = links
        return nodes, links

    def _fill_down(self, node: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Fill and return ``node``'s chain root-first and its links."""
        base = node - node % self.tree_size
        nodes = tuple(base + local for local in reversed(self._chain[node - base]))
        links = nodes[1:]
        self._down_nodes[node] = nodes
        self._down_links[node] = links
        return nodes, links

    def _fill_transit(self, pop_a: int, pop_b: int) -> tuple[int, ...]:
        """Fill and return the transit PoP roots strictly between two PoPs."""
        transit = tuple(
            pop * self.tree_size for pop in self._core_paths[pop_a][pop_b][1:-1]
        )
        self._transit[pop_a * self.num_pops + pop_b] = transit
        return transit

    def _all_pairs_bfs(self) -> tuple[list[list[int]], list[list[int]]]:
        n = self.num_pops
        dist = [[-1] * n for _ in range(n)]
        # prev[s][v]: predecessor of v on the shortest path from s.
        prev = [[-1] * n for _ in range(n)]
        for source in range(n):
            dist[source][source] = 0
            queue = deque([source])
            while queue:
                node = queue.popleft()
                for nbr in self.pop_topology.neighbors(node):
                    if dist[source][nbr] == -1:
                        dist[source][nbr] = dist[source][node] + 1
                        prev[source][nbr] = node
                        queue.append(nbr)
        return dist, prev

    def _materialize_core_paths(self) -> list[list[tuple[int, ...]]]:
        n = self.num_pops
        paths: list[list[tuple[int, ...]]] = [[() for _ in range(n)] for _ in range(n)]
        for src in range(n):
            for dst in range(n):
                node = dst
                path = [node]
                while node != src:
                    node = self._core_next[src][node]
                    path.append(node)
                path.reverse()
                paths[src][dst] = tuple(path)
        return paths

    def _materialize_core_path_links(self) -> list[list[tuple[int, ...]]]:
        n = self.num_pops
        links: list[list[tuple[int, ...]]] = [[() for _ in range(n)] for _ in range(n)]
        for src in range(n):
            for dst in range(n):
                path = self._core_paths[src][dst]
                links[src][dst] = tuple(
                    self.num_nodes
                    + self._core_edge_index[(min(u, v), max(u, v))]
                    for u, v in zip(path, path[1:])
                )
        return links

    def unit_hop_costs(self) -> HopCosts:
        """The paper's default model: every hop costs 1."""
        return HopCosts(
            tree_to_root=tuple(float(d) for d in map(self.tree.depth_of,
                                                     range(self.tree_size))),
            core_hop=1.0,
        )

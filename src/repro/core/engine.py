"""Request-level cache-network simulator (Section 4.1).

"For reasons of scalability, we use a request-level simulator and thus
we do not model packet-level, TCP, or router queueing effects."  Each
request is (arrival PoP, arrival leaf, object); the engine

1. finds the serving node under the architecture's routing —
   shortest-path-to-origin with optional scoped sibling cooperation, or
   the nearest-replica oracle;
2. charges latency (hop costs from the serving node to the leaf),
   congestion (one object transfer per response-path link), and origin
   load when the origin store served;
3. stores the object at every cache-enabled node on the response path
   ("each node on the response path ... stores the object in addition
   to forwarding it towards the client").

Lookup/discovery is free for ICN designs, as the paper conservatively
assumes.

The no-cache baseline is the architecture with ``placement="none"``
(:data:`~repro.core.architectures.NO_CACHE`) and runs through the same
loop: with no cache to probe, the origin serves every request.  Having no
state to warm, such a run skips its warmup prefix outright, and its
trace header carries the routing label ``"origin"``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable, Iterator

import numpy as np

from ..cache import POLICIES, Cache, InfiniteCache, make_cache
from ..topology.network import HopCosts, Network
from ..workload.generator import Workload
from ..workload.stream import StreamingWorkload
from .architectures import NO_CACHE, Architecture
from .capacity import CapacityModel, CapacityTracker
from .metrics import MetricsCollector, SimulationResult
from .routing import ReplicaDirectory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.sink import Observer

#: Available execution engines.  "reference" is the readable per-request
#: loop below; "fast" is the flat-array engine of
#: :mod:`repro.core.fastpath`, which produces field-for-field identical
#: :class:`SimulationResult` objects (pinned by the differential suite).
ENGINES = ("reference", "fast")

#: Pinned seed for the probabilistic-insertion coin flips.  Deliberately
#: a fixed algorithmic constant, independent of the experiment seed: the
#: insertion stream must be identical across engines and runs for the
#: differential suite's field-for-field equality.  ``core/fastpath.py``
#: imports this value.
_INSERT_SEED = 0xC0FFEE


def _stream_bounds(
    workload: Workload | StreamingWorkload, warmup_fraction: float
) -> tuple[int, int]:
    """Resolve ``(num_requests, first_measured)`` for a request stream.

    The warmup boundary is an absolute request index: the first
    ``warmup_fraction`` of the stream is simulated but not measured.
    """
    num_requests = workload.num_requests
    return num_requests, int(warmup_fraction * num_requests)


def _request_lists(
    workload: Workload | StreamingWorkload, skip: int
) -> Iterator[tuple[int, list[int], list[int], list[int]]]:
    """The request columns, chunk by chunk, as flat Python lists.

    Yields ``(index of the first request, pops, leaves, objects)`` per
    chunk, dropping every request before global index ``skip``; a chunk
    wholly before ``skip`` is never converted.  Converting once per
    chunk keeps per-request ``int(arr[i])`` extraction out of the
    engines' loops and peak memory O(chunk) for streamed workloads.
    """
    start = 0
    for chunk in workload.chunks():
        end = start + len(chunk)
        if end > skip:
            cut = max(skip - start, 0)
            yield (
                start + cut,
                chunk.pops[cut:].tolist(),
                chunk.leaves[cut:].tolist(),
                chunk.objects[cut:].tolist(),
            )
        start = end


class Simulator:
    """Runs one architecture over one workload on one network."""

    def __init__(
        self,
        network: Network,
        architecture: Architecture,
        workload: Workload | StreamingWorkload,
        budgets: list[float],
        policy: str = "lru",
        hop_costs: HopCosts | None = None,
        capacity: CapacityModel | None = None,
        warmup_fraction: float = 0.0,
        preload: dict[int, list[int]] | None = None,
        frozen_caches: bool = False,
        failed_nodes: frozenset[int] | set[int] | tuple[int, ...] = (),
        engine: str = "reference",
        observer: "Observer | None" = None,
    ) -> None:
        """See the module docstring for the simulation semantics.

        ``preload`` maps global node ids to objects inserted before the
        first request; with ``frozen_caches`` the response path performs
        no insertions, turning the run into a *static placement*
        evaluation (used by the LRU-vs-optimal ablation — Section 3's
        "the LRU policy performs near-optimally").

        ``failed_nodes`` marks cache nodes as crashed: they get no cache,
        never serve, take no response-path copies, and routing walks past
        them; requests that skip a failed node are reported via the
        ``fallback_served`` counter (availability accounting).  Origins
        are never failed — the origin store at a failed root still
        answers, matching the paper's always-available origin model.

        ``engine`` selects the execution strategy: "reference" runs the
        readable per-request loop in this module; "fast" runs the flat-
        array engine (:mod:`repro.core.fastpath`) with identical output.
        The fast engine rebuilds its state from this constructor's
        configuration on every :meth:`run` call, so each fast run starts
        from the post-preload state (the reference engine instead keeps
        mutating ``self.caches`` across repeated runs).

        ``observer`` attaches an optional :class:`repro.obs.Observer`.
        With one attached, each :meth:`run` records per-node serve /
        copy / eviction counters, per-link and per-origin tallies, and
        (when the observer carries a tracer) sampled per-request trace
        records.  Observation never touches simulation state or any
        RNG, so results are bit-identical with or without it; preload
        insertions happen before the run opens and are not counted.
        """
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {ENGINES}"
            )
        if policy not in POLICIES:
            # Checked here, not only where a finite cache is built.
            raise ValueError(
                f"unknown policy {policy!r}; choose from {sorted(POLICIES)}"
            )
        if len(budgets) != network.num_nodes:
            raise ValueError("budgets must have one entry per network node")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self._failed = frozenset(int(n) for n in failed_nodes)
        for node in sorted(self._failed):
            if not 0 <= node < network.num_nodes:
                raise ValueError(f"failed node {node} outside the network")
        self.network = network
        self.architecture = architecture
        self.workload = workload
        self.costs = hop_costs if hop_costs is not None else network.unit_hop_costs()
        self.warmup_fraction = warmup_fraction
        self.engine = engine
        self.policy = policy
        self.observer = observer

        tree = network.tree
        self._tree_size = network.tree_size
        cache_locals = architecture.cache_locals(tree)
        self._cache_local_set = frozenset(cache_locals)
        #: The design places no cache (the NO-CACHE baseline), so there
        #: is no state to warm: both engines skip the warmup prefix, and
        #: the trace header labels the routing "origin".
        self._cacheless = not cache_locals
        multiplier = architecture.effective_multiplier(tree)
        self.caches: dict[int, Cache] = {}
        for pop in range(network.num_pops):
            base = pop * self._tree_size
            for local in cache_locals:
                node = base + local
                if node in self._failed:
                    continue  # a crashed node carries no cache
                if architecture.infinite:
                    self.caches[node] = InfiniteCache()
                else:
                    self.caches[node] = make_cache(
                        policy, budgets[node] * multiplier
                    )
        self.directory = (
            ReplicaDirectory(network, failed_nodes=self._failed)
            if architecture.routing == "nr-global"
            else None
        )
        self._nr_scope_order = (
            self._build_nr_scope_order() if architecture.routing == "nr" else None
        )
        # Cache-enabled siblings per tree-local index, for scoped cooperation.
        self._coop_siblings: tuple[tuple[int, ...], ...] = tuple(
            tuple(s for s in tree.siblings(local) if s in self._cache_local_set)
            if architecture.cooperation
            else ()
            for local in range(tree.size)
        )
        self._capacity = (
            CapacityTracker(capacity, network.num_nodes) if capacity else None
        )
        self._chains = network._chain  # tree-local path-to-root per local index
        self.frozen_caches = frozen_caches
        self._preload = preload
        if preload:
            # Validate everything before the first insertion: a negative
            # id would otherwise index the size table from its end.
            num_objects = workload.num_objects
            for node, objs in preload.items():
                if node not in self.caches:
                    raise ValueError(
                        f"cannot preload node {node}: no cache placed there"
                    )
                for obj in objs:
                    if not 0 <= obj < num_objects:
                        raise ValueError(
                            f"cannot preload object {obj} at node {node}: "
                            f"object ids are in [0, {num_objects})"
                        )
            sizes = workload.sizes
            for node, objs in preload.items():
                for obj in objs:
                    self._insert(node, int(obj), float(sizes[obj]))

    def run(self) -> SimulationResult:
        """Simulate the full request stream and return measured aggregates."""
        if self.engine == "fast":
            from .fastpath import FastEngine

            return FastEngine(self).run()
        network = self.network
        workload = self.workload
        tree_size = self._tree_size
        sizes = workload.sizes
        origins = workload.origins
        costs = self.costs
        num_requests, first_measured = _stream_bounds(
            workload, self.warmup_fraction
        )
        collector = MetricsCollector(network.num_links, network.num_pops)
        if self.architecture.routing == "nr-global":
            route = self._route_nr_global
        elif self.architecture.routing == "nr":
            route = self._route_nr_scoped
        else:
            route = self._route_sp
        path_cost = network.path_cost
        path_links = network.path_links
        path_nodes = network.path_nodes
        cache_local_set = self._cache_local_set
        insert = self._insert
        insertion = self.architecture.insertion
        insert_probability = self.architecture.insertion_probability
        insert_rng = np.random.default_rng(_INSERT_SEED)

        failed = self._failed
        observer = self.observer
        rec = None
        trace_wants: Callable[[int], bool] | None = None
        trace_emit = None
        if observer is not None:
            rec = observer.start_run(
                self.architecture.name,
                "origin" if self._cacheless else self.architecture.routing,
                network.num_nodes,
                num_requests,
                first_measured,
            )
            if observer.tracer is not None:
                trace_wants = observer.tracer.wants
                trace_emit = observer.tracer.emit_request
            rec_copies = rec.copies
            rec_evicts = rec.evictions
            bare_insert = insert

            def counting_insert(
                node: int,
                obj: int,
                size: float,
                _insert: Callable[[int, int, float], list[Hashable]] = bare_insert,
            ) -> list[Hashable]:
                rec_copies[node] += 1
                evicted = _insert(node, obj, size)
                rec_evicts[node] += len(evicted)
                return evicted

            insert = counting_insert
        # The request stream arrives in chunks (a materialized workload
        # yields exactly one); `i` is the running global request index,
        # so warmup and trace sampling are chunk-boundary agnostic.
        skip = first_measured if self._cacheless else 0
        for start, pops, leaves, objects in _request_lists(workload, skip):
            for i, (pop, leaf_local, obj) in enumerate(
                zip(pops, leaves, objects), start
            ):
                origin_pop = int(origins[obj])
                serving, served_origin_pop, coop, fallback = route(
                    pop, leaf_local, obj, origin_pop, i
                )
                leaf_gid = pop * tree_size + leaf_local
                if i >= first_measured:
                    if serving == leaf_gid:
                        collector.record(
                            0.0, [], sizes[obj], served_origin_pop, coop, fallback
                        )
                    else:
                        collector.record(
                            path_cost(serving, leaf_gid, costs),
                            path_links(serving, leaf_gid),
                            sizes[obj],
                            served_origin_pop,
                            coop,
                            fallback,
                        )
                if rec is not None:
                    if i >= first_measured:
                        rec.serves[serving] += 1
                    if trace_wants is not None and trace_wants(i):
                        assert trace_emit is not None
                        trace_emit(
                            i,
                            pop,
                            leaf_local,
                            obj,
                            serving,
                            served_origin_pop,
                            0.0
                            if serving == leaf_gid
                            else path_cost(serving, leaf_gid, costs),
                            float(sizes[obj]),
                            coop,
                            fallback,
                        )
                if serving != leaf_gid and not self.frozen_caches:
                    size = sizes[obj]
                    if insertion == "everywhere":
                        for node in path_nodes(serving, leaf_gid)[1:]:
                            if (
                                node % tree_size in cache_local_set
                                and node not in failed
                            ):
                                insert(node, obj, size)
                    elif insertion == "lcd":
                        # Leave-copy-down: only the first cache below the
                        # serving node takes a copy, so popular objects
                        # migrate toward the edge one level per request.
                        for node in path_nodes(serving, leaf_gid)[1:]:
                            if (
                                node % tree_size in cache_local_set
                                and node not in failed
                            ):
                                insert(node, obj, size)
                                break
                    else:  # probabilistic
                        for node in path_nodes(serving, leaf_gid)[1:]:
                            if (
                                node % tree_size in cache_local_set
                                and node not in failed
                                and insert_rng.random() < insert_probability
                            ):
                                insert(node, obj, size)
        result = collector.result(self.architecture.name)
        if observer is not None and rec is not None:
            observer.finish_run(rec, result)
        return result

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route_sp(
        self, pop: int, leaf_local: int, obj: int, origin_pop: int, i: int
    ) -> tuple[int, int | None, bool, bool]:
        """Shortest path toward the origin; first cache on the path serves."""
        tree_size = self._tree_size
        caches = self.caches
        cache_local_set = self._cache_local_set
        capacity = self._capacity
        cooperation = self.architecture.cooperation
        failed = self._failed
        fallback = False
        base = pop * tree_size
        for local in self._chains[leaf_local]:
            if local == 0 and origin_pop == pop:
                break  # reached the origin store
            if local in cache_local_set:
                node = base + local
                if node in failed:
                    fallback = True  # walk past the dead cache
                    continue
                if caches[node].lookup(obj):
                    if capacity is None or capacity.try_serve(node, i):
                        return node, None, False, fallback
                elif cooperation:
                    for sibling_local in self._coop_siblings[local]:
                        sibling = base + sibling_local
                        if sibling in failed:
                            continue
                        if caches[sibling].lookup(obj) and (
                            capacity is None or capacity.try_serve(sibling, i)
                        ):
                            return sibling, None, True, fallback
        if origin_pop != pop:
            root_cached = 0 in cache_local_set
            for transit_pop in self.network.core_path(pop, origin_pop)[1:]:
                if transit_pop == origin_pop:
                    break
                if root_cached:
                    node = transit_pop * tree_size
                    if node in failed:
                        fallback = True
                        continue
                    if caches[node].lookup(obj) and (
                        capacity is None or capacity.try_serve(node, i)
                    ):
                        return node, None, False, fallback
        origin_root = origin_pop * tree_size
        if capacity is not None:
            capacity.force_serve(origin_root, i)
        return origin_root, origin_pop, False, fallback

    def _build_nr_scope_order(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Distance-ordered scoped-NR candidates per tree-local leaf.

        The scope is every node on the leaf's path to the root plus each
        path node's siblings; entries are (distance, local) sorted by
        exact tree distance with on-path nodes winning ties.
        """
        tree = self.network.tree
        orders: list[tuple[tuple[int, int], ...]] = []
        for local in range(tree.size):
            if not tree.is_leaf(local):
                orders.append(())
                continue
            leaf_depth = tree.depth_of(local)
            entries: list[tuple[int, int, int]] = []
            for node in tree.path_to_root(local):
                dist = leaf_depth - tree.depth_of(node)
                entries.append((dist, 0, node))
                for sibling in tree.siblings(node):
                    entries.append((dist + 2, 1, sibling))
            entries.sort()
            orders.append(tuple((dist, node) for dist, _, node in entries))
        return tuple(orders)

    def _route_nr_scoped(
        self, pop: int, leaf_local: int, obj: int, origin_pop: int, i: int
    ) -> tuple[int, int | None, bool, bool]:
        """Nearest replica within the request path's scope.

        Candidates are the path nodes and their siblings, visited in
        exact distance order, then transit PoP roots along the core
        path; the origin serves when no scoped replica is closer.
        Failed candidates are skipped (and flagged as fallbacks).
        """
        tree_size = self._tree_size
        caches = self.caches
        cache_local_set = self._cache_local_set
        capacity = self._capacity
        failed = self._failed
        fallback = False
        base = pop * tree_size
        own_origin = origin_pop == pop
        origin_tree_dist = self.network.tree.depth_of(leaf_local)
        for dist, local in self._nr_scope_order[leaf_local]:
            if own_origin and dist >= origin_tree_dist:
                break  # the origin store (at the root) is at least as close
            if local in cache_local_set:
                node = base + local
                if node in failed:
                    fallback = True
                    continue
                if caches[node].lookup(obj) and (
                    capacity is None or capacity.try_serve(node, i)
                ):
                    return node, None, False, fallback
        if not own_origin and 0 in cache_local_set:
            for transit_pop in self.network.core_path(pop, origin_pop)[1:]:
                if transit_pop == origin_pop:
                    break
                node = transit_pop * tree_size
                if node in failed:
                    fallback = True
                    continue
                if caches[node].lookup(obj) and (
                    capacity is None or capacity.try_serve(node, i)
                ):
                    return node, None, False, fallback
        origin_root = origin_pop * tree_size
        if capacity is not None:
            capacity.force_serve(origin_root, i)
        return origin_root, origin_pop, False, fallback

    def _route_nr_global(
        self, pop: int, leaf_local: int, obj: int, origin_pop: int, i: int
    ) -> tuple[int, int | None, bool, bool]:
        """Nearest-replica oracle over every cache; falls back to the origin.

        The directory never records replicas at failed nodes, so the
        oracle routes around failures implicitly; no fallback flag is
        raised because no dead candidate is ever offered and skipped.
        """
        tree_size = self._tree_size
        leaf_gid = pop * tree_size + leaf_local
        origin_root = origin_pop * tree_size
        origin_dist = self.network.distance(leaf_gid, origin_root)
        found = self.directory.nearest(obj, leaf_gid)
        if found is not None:
            node, dist = found
            # Prefer the replica on ties: same latency, less origin load.
            if dist <= origin_dist:
                self.caches[node].lookup(obj)
                capacity = self._capacity
                if capacity is None or capacity.try_serve(node, i):
                    return node, None, False, False
        if self._capacity is not None:
            self._capacity.force_serve(origin_root, i)
        return origin_root, origin_pop, False, False

    # ------------------------------------------------------------------
    # Cache insertion
    # ------------------------------------------------------------------
    def _insert(self, node: int, obj: int, size: float) -> list[Hashable]:
        """Insert ``obj`` at ``node``; returns the evicted objects."""
        cache = self.caches[node]
        directory = self.directory
        if directory is None:
            return cache.insert(obj, size)
        was_cached = obj in cache
        evicted = cache.insert(obj, size)
        for victim in evicted:
            directory.remove(victim, node)
        if not was_cached and obj in cache:
            directory.add(obj, node)
        return evicted

    @property
    def capacity_rejections(self) -> int:
        """Requests redirected because a cache was overloaded."""
        return self._capacity.rejections if self._capacity else 0


def simulate_no_cache(
    network: Network,
    workload: Workload | StreamingWorkload,
    hop_costs: HopCosts | None = None,
    warmup_fraction: float = 0.0,
    engine: str = "reference",
    observer: "Observer | None" = None,
) -> SimulationResult:
    """The normalization baseline: every request is served by its origin."""
    return Simulator(
        network, NO_CACHE, workload, [0.0] * network.num_nodes,
        hop_costs=hop_costs, warmup_fraction=warmup_fraction,
        engine=engine, observer=observer,
    ).run()

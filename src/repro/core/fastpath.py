"""Flat-array fast path for the request-level simulator.

``Simulator(engine="fast")`` routes :meth:`Simulator.run` through this
module.  The fast engine is *observationally identical* to the
reference per-request loop — the differential suite
(``tests/core/test_fastpath_equivalence.py``) asserts field-for-field
equal :class:`SimulationResult` objects — but restructures the work so
CPython spends its time on arithmetic instead of attribute lookups:

* the workload's NumPy request columns are converted to flat Python
  lists one chunk at a time as the stream arrives (per-request
  ``int(arr[i])`` extraction is the reference loop's single biggest
  cost, and per-chunk conversion keeps peak memory O(chunk) for
  streamed workloads);
* routing variants are data, not code paths: shortest-path and scoped
  nearest-replica routing run one walk over per-(own-origin, leaf)
  tables of the cache-enabled tree nodes to probe, each with its
  cooperating siblings, then over the network's transit PoP roots; only
  the global nearest-replica oracle keeps its own branch, and a design
  that places no cache (the NO-CACHE baseline) builds no tables and
  sends every request straight to its origin;
* per-``(serving node, leaf)`` latency, response-path link ids, and
  insertable cache nodes are computed once per run through the reference
  :class:`~repro.topology.network.Network` oracles and memoized — so
  every float and every link ordering is bit-identical by construction.
  A memo miss is cheap: the oracles concatenate per-node chain tuples the
  network fills on first use and keeps, and a per-run bitmap over global
  node ids (cache-enabled and not failed) filters the insertable nodes.
  A request served at its own leaf has no path (zero cost, no links, no
  copies), so every request runs the same accounting block;
* cache state lives in the flat structs of :mod:`repro.cache.fast`
  (membership bitmaps + insertion-ordered dicts) instead of
  ``OrderedDict`` objects behind two layers of method calls: a miss is
  one bitmap probe, a hit one ``lookup`` call, and insertion picks its
  targets once, then runs an inline LRU insert (LRU without a replica
  directory) or the struct's ``insert``;
* metrics accumulate into preallocated flat counters and are converted
  to the NumPy arrays of :class:`SimulationResult` once, at the end,
  with the same reduction calls the reference collector uses.

The routing walks, capacity bookkeeping, failure fallbacks, and the
probabilistic insertion RNG consume state in exactly the reference
order, so cache contents — and therefore every downstream decision —
never diverge.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..cache import InfiniteCache
from ..cache.fast import FastInfinite, make_fast_cache
from .engine import _INSERT_SEED, _request_lists, _stream_bounds
from .metrics import SimulationResult
from .routing import ReplicaDirectory

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .engine import Simulator

__all__ = ["FastEngine"]


class FastEngine:
    """One-shot fast executor for a configured :class:`Simulator`.

    Built inside :meth:`Simulator.run`; reads the simulator's validated
    configuration and rebuilds cache/directory state in flat form
    (replaying any preload in the reference insertion order), so each
    ``run()`` starts from the constructor state.
    """

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        # The observability sink (None by default).  ``self._rec`` is the
        # per-run recorder; it stays None until run() opens a run, so the
        # preload replay below is never counted (matching the reference
        # engine, whose recorder also does not exist during __init__).
        self._observer = sim.observer
        self._rec = None
        network = sim.network
        workload = sim.workload
        self._network = network
        self._costs = sim.costs
        ts = network.tree_size
        self._ts = ts
        num_objects = workload.num_objects

        # Per-object tables as flat Python lists (one-time conversion).
        # Request columns are NOT materialized here: run() converts them
        # chunk by chunk as the workload streams through.
        self._sizes = workload.sizes.tolist()
        self._origins = workload.origins.tolist()

        # Cache-enabled locals as an O(1) bitmap, and its tiling over
        # global node ids with the failed nodes cleared: the nodes that
        # may take a response-path copy in this run.
        is_cache = bytearray(ts)
        for local in sorted(sim._cache_local_set):
            is_cache[local] = 1
        self._is_cache = is_cache
        self._insertable = is_cache * network.num_pops
        for node in sorted(sim._failed):
            self._insertable[node] = 0
        self._depth = [network.tree.depth_of(local) for local in range(ts)]

        # Flat cache structs mirroring the reference caches' capacities
        # (multipliers already applied by the Simulator constructor).
        arch = sim.architecture
        num_nodes = network.num_nodes
        self._caches: list = [None] * num_nodes
        #: Shared views of each struct's membership bitmap / order dict,
        #: indexed by global node id — the hot loop reads these directly
        #: (same underlying objects, so struct calls stay consistent).
        self._members: list = [None] * num_nodes
        self._orders: list = [None] * num_nodes
        self._capacities: list = [0.0] * num_nodes
        for node, ref_cache in sim.caches.items():
            if isinstance(ref_cache, InfiniteCache):
                struct = FastInfinite(num_objects)
            else:
                struct = make_fast_cache(
                    sim.policy, ref_cache.capacity, num_objects, self._sizes
                )
                self._capacities[node] = struct.capacity
                if hasattr(struct, "order"):
                    self._orders[node] = struct.order
            self._caches[node] = struct
            # LFU's frequency table doubles as its membership test
            # (freq > 0 iff cached), so every policy exposes an O(1)
            # truthy-per-object view here.
            self._members[node] = getattr(struct, "member", None)
            if self._members[node] is None:
                self._members[node] = struct.freq
        self._directory = (
            ReplicaDirectory(network, failed_nodes=sim._failed)
            if arch.routing == "nr-global"
            else None
        )
        if sim._preload:
            for node, objs in sim._preload.items():
                for obj in objs:
                    self._insert(node, int(obj))
        #: Post-preload used-budget snapshot; the single source of truth
        #: when the inline LRU insert path is active (the structs'
        #: ``insert`` is never called on that configuration).
        self._useds: list = [
            getattr(struct, "used", 0.0) if struct is not None else 0.0
            for struct in self._caches
        ]

        # Walk tables for sp and scoped-nr routing, indexed
        # [own_origin][leaf]: the (local, coop siblings) pairs a request
        # probes in order, over cache-enabled nodes only.  When the
        # origin is the arrival PoP the walk stops short of the origin
        # store at the root: sp drops the root, nr cuts its scope where
        # the root is at least as close.  Cooperation is sp-only (see
        # Architecture), so nr's sibling tuples are all empty.  A design
        # without caches has nothing to probe and gets no tables.
        self._walks: tuple | None = None
        if arch.routing != "nr-global" and not sim._cacheless:
            if arch.routing == "sp":
                per_leaf = [(chain, chain[:-1]) for chain in network._chain]
            else:
                per_leaf = [
                    (
                        [local for _, local in scope],
                        [local for dist, local in scope if dist < self._depth[leaf]],
                    )
                    for leaf, scope in enumerate(sim._nr_scope_order)
                ]
            siblings = sim._coop_siblings
            self._walks = tuple(
                tuple(
                    tuple(
                        (local, siblings[local])
                        for local in probes[own_origin]
                        if is_cache[local]
                    )
                    for probes in per_leaf
                )
                for own_origin in (False, True)
            )

        # Memoized per-(serving, leaf) path data; filled on first use.
        self._path_entries: dict[int, tuple[float, tuple[int, ...], tuple[int, ...]]] = {}

    # ------------------------------------------------------------------
    # Path memoization
    # ------------------------------------------------------------------
    def _path_entry(
        self, serving: int, leaf_gid: int
    ) -> tuple[float, tuple[int, ...], tuple[int, ...]]:
        """(latency, response links, insertable cache nodes) for one pair.

        Computed through the reference Network oracles, which concatenate
        the network's lazily filled per-node chain tables, so the float
        arithmetic and link ordering match the reference engine bit for
        bit.  Insertables are the response path's nodes after the serving
        one that are set in the run's ``_insertable`` bitmap (cache-enabled
        and not failed), in response-path order: the exact sequence the
        reference insertion loop, and its probabilistic RNG, visits.  A
        design without caches has none, so it skips the node sequence.
        """
        network = self._network
        insertable = self._insertable
        cost = network.path_cost(serving, leaf_gid, self._costs)
        links = tuple(network.path_links(serving, leaf_gid))
        inserts: tuple[int, ...] = ()
        if not self._sim._cacheless:
            nodes = network.path_nodes(serving, leaf_gid)
            inserts = tuple([node for node in nodes[1:] if insertable[node]])
        entry = (cost, links, inserts)
        self._path_entries[serving * network.num_nodes + leaf_gid] = entry
        return entry

    # ------------------------------------------------------------------
    # Struct insertion
    # ------------------------------------------------------------------
    def _insert(self, node: int, obj: int) -> None:
        """Insert through the node's struct, as ``Simulator._insert`` does.

        Keeps the nr-global replica directory in step and counts the copy
        and its evictions once a run is open.
        """
        cache = self._caches[node]
        directory = self._directory
        if directory is None:
            evicted = cache.insert(obj)
        else:
            was_cached = obj in cache
            evicted = cache.insert(obj)
            for victim in evicted:
                directory.remove(victim, node)
            if not was_cached and obj in cache:
                directory.add(obj, node)
        rec = self._rec
        if rec is not None:
            rec.copies[node] += 1
            rec.evictions[node] += len(evicted)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Simulate the full request stream with flat state."""
        sim = self._sim
        network = self._network
        arch = sim.architecture
        ts = self._ts
        num_nodes = network.num_nodes
        num_pops = network.num_pops
        workload = sim.workload
        sizes = self._sizes
        origins = self._origins
        depth = self._depth
        caches = self._caches
        members = self._members
        orders = self._orders
        capacities = self._capacities
        useds = self._useds
        walks = self._walks
        transits = network._transit
        fill_transit = network._fill_transit
        core_dist = network._core_dist
        failed = sim._failed
        any_failed = bool(failed)
        cap = sim._capacity
        directory = self._directory
        nearest_within = directory.nearest_within if directory else None
        frozen = sim.frozen_caches
        root_cached = bool(self._is_cache[0])
        path_entries = self._path_entries
        entry_of = self._path_entry
        insert = self._insert

        ins_lcd = arch.insertion == "lcd"
        ins_coin = arch.insertion == "probabilistic"
        insert_probability = arch.insertion_probability
        insert_random = np.random.default_rng(_INSERT_SEED).random
        # LRU without a replica directory inserts inline, the hot case of
        # the write-heavy replays; every other configuration goes through
        # the structs' ``insert``.
        inline_lru = sim.policy == "lru" and not arch.infinite and directory is None

        num_requests, first_measured = _stream_bounds(
            workload, sim.warmup_fraction
        )

        # Observability: everything below is gated on ``observing`` (a
        # plain local bool), so the disabled default costs one predicted
        # branch per site and allocates nothing (lint rule O501).
        observer = self._observer
        rec = None
        rec_serves = rec_copies = rec_evicts = None
        trace_wants = None
        trace_emit = None
        observing = False
        if observer is not None:
            rec = observer.start_run(
                arch.name,
                "origin" if sim._cacheless else arch.routing,
                num_nodes,
                num_requests,
                first_measured,
            )
            self._rec = rec
            rec_serves = rec.serves
            rec_copies = rec.copies
            rec_evicts = rec.evictions
            observing = True
            if observer.tracer is not None:
                trace_wants = observer.tracer.wants
                trace_emit = observer.tracer.emit_request

        measured = 0
        total_latency = 0.0
        cache_served = 0
        coop_served = 0
        fallback_served = 0
        link_transfers = [0.0] * network.num_links
        origin_serves = [0.0] * num_pops

        # ``i`` is the running global request index across chunks.
        skip = first_measured if sim._cacheless else 0
        for start, cpops, cleaves, cobjects in _request_lists(workload, skip):
            for i, (pop, leaf_local, obj) in enumerate(
                zip(cpops, cleaves, cobjects), start
            ):
                origin_pop = origins[obj]
                base = pop * ts
                leaf_gid = base + leaf_local
                fallback = False
                coop = False
                serving = -1
                served_origin = None

                # A hit refreshes the struct's recency or frequency
                # through ``lookup``; a miss costs one bitmap probe.
                if walks is not None:  # sp and scoped nr
                    own_origin = origin_pop == pop
                    for local, siblings in walks[own_origin][leaf_local]:
                        node = base + local
                        if any_failed and node in failed:
                            fallback = True  # walk past the dead cache
                            continue
                        if members[node][obj]:
                            caches[node].lookup(obj)
                            if cap is None or cap.try_serve(node, i):
                                serving = node
                                break
                        elif siblings:
                            for sib_local in siblings:
                                sib = base + sib_local
                                if any_failed and sib in failed:
                                    continue
                                if members[sib][obj]:
                                    caches[sib].lookup(obj)
                                    if cap is None or cap.try_serve(sib, i):
                                        serving = sib
                                        coop = True
                                        break
                            if coop:
                                break
                    if serving < 0 and not own_origin and root_cached:
                        transit = transits[pop * num_pops + origin_pop]
                        if transit is None:
                            transit = fill_transit(pop, origin_pop)
                        for node in transit:
                            if any_failed and node in failed:
                                fallback = True
                                continue
                            if members[node][obj]:
                                caches[node].lookup(obj)
                                if cap is None or cap.try_serve(node, i):
                                    serving = node
                                    break
                elif directory is not None:  # nr-global oracle
                    origin_dist = depth[leaf_local] + core_dist[pop][origin_pop]
                    # Replicas beyond the origin can never serve (ties
                    # prefer the replica: same latency, less origin load),
                    # so the bounded query prunes PoPs nearest() would
                    # still scan while picking the identical winner.
                    found = nearest_within(obj, leaf_gid, origin_dist)
                    if found is not None:
                        node = found[0]
                        caches[node].lookup(obj)
                        if cap is None or cap.try_serve(node, i):
                            serving = node

                if serving < 0:
                    serving = origin_pop * ts
                    served_origin = origin_pop
                    if cap is not None:
                        cap.force_serve(serving, i)

                # A request served at its own leaf crosses no link and
                # leaves no copy; every request is then accounted alike.
                if serving == leaf_gid:
                    cost, links, inserts = 0.0, (), ()
                else:
                    entry = path_entries.get(serving * num_nodes + leaf_gid)
                    if entry is None:
                        entry = entry_of(serving, leaf_gid)
                    cost, links, inserts = entry
                size = sizes[obj]
                if observing:
                    if i >= first_measured:
                        rec_serves[serving] += 1
                    if trace_wants is not None and trace_wants(i):
                        trace_emit(
                            i,
                            pop,
                            leaf_local,
                            obj,
                            serving,
                            served_origin,
                            cost,
                            float(size),
                            coop,
                            fallback,
                        )
                if i >= first_measured:
                    measured += 1
                    total_latency += cost
                    for link in links:
                        link_transfers[link] += size
                    if fallback:
                        fallback_served += 1
                    if served_origin is None:
                        if coop:
                            coop_served += 1
                        else:
                            cache_served += 1
                    else:
                        origin_serves[served_origin] += 1

                if inserts and not frozen:
                    # Pick the copies in the reference order: leave-copy-
                    # down keeps the first cache below the serving node,
                    # probabilistic flips one coin per candidate.
                    targets = inserts
                    if ins_lcd:
                        targets = inserts[:1]
                    elif ins_coin:
                        targets = [
                            node
                            for node in inserts
                            if insert_random() < insert_probability
                        ]
                    if inline_lru:
                        for node in targets:
                            if observing:
                                rec_copies[node] += 1
                            member = members[node]
                            if member[obj]:
                                order = orders[node]
                                del order[obj]
                                order[obj] = None
                            else:
                                node_cap = capacities[node]
                                if size <= node_cap:
                                    used = useds[node]
                                    order = orders[node]
                                    while used + size > node_cap:
                                        victim = next(iter(order))
                                        del order[victim]
                                        member[victim] = 0
                                        used -= sizes[victim]
                                        if observing:
                                            rec_evicts[node] += 1
                                    order[obj] = None
                                    member[obj] = 1
                                    useds[node] = used + size
                    else:
                        for node in targets:
                            insert(node, obj)

        result = SimulationResult.from_counters(
            architecture=arch.name,
            num_requests=measured,
            total_latency=total_latency,
            link_transfers=link_transfers,
            origin_serves=origin_serves,
            cache_served=cache_served,
            coop_served=coop_served,
            fallback_served=fallback_served,
        )
        if observer is not None and rec is not None:
            self._rec = None
            observer.finish_run(rec, result)
        return result

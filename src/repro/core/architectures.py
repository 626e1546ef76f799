"""The caching design space (Section 3) and its representative designs.

An :class:`Architecture` fixes the three knobs the paper varies:

* **cache placement** — which access-tree levels carry caches
  (pervasive, edge-only, edge plus one level, ... or none at all: the
  NO-CACHE baseline every improvement is measured against);
* **request routing** — shortest path toward the origin vs.
  nearest-replica;
* **cooperation** — optional scoped sibling lookup
  ("EDGE-Coop ... each router does a scoped lookup to check if its
  sibling in the access tree has the object"), for shortest-path
  routing only.

plus the budget adjustments of Sections 4 and 5 (EDGE-Norm's total-
budget normalization, Figure 10's budget doubling, and the Inf-Budget
reference point).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..topology.access_tree import AccessTree

PLACEMENTS = ("pervasive", "edge", "two_levels", "none")
#: "sp" walks the shortest path toward the origin; "nr" additionally
#: serves from the nearest replica within the path's scope (each path
#: node plus its siblings, in exact distance order); "nr-global" is a
#: true zero-cost oracle over every cache in the network.  The paper's
#: reported ICN-NR numbers (NR adds ~2% over SP; gap vs EDGE bounded by
#: 17% even in the best case; Table 4's arity trend) are only consistent
#: with the scoped behaviour — a global oracle can exploit the union of
#: all edge caches as one giant distributed store and beats EDGE by
#: 30-45% on congestion/origin load.  We therefore model ICN-NR as the
#: scoped search and expose the oracle separately (ICN-NR-Global) as an
#: ablation; see DESIGN.md and EXPERIMENTS.md.
ROUTINGS = ("sp", "nr", "nr-global")

#: On-path insertion policies.  The paper uses leave-copy-everywhere
#: ("each node on the response path ... stores the object"); LCD
#: (leave-copy-down: only the first cache below the serving node takes a
#: copy) and probabilistic insertion are the standard ICN alternatives,
#: provided as ablations of that design choice.
INSERTIONS = ("everywhere", "lcd", "probabilistic")


@dataclass(frozen=True)
class Architecture:
    """One point in the cache placement x routing design space."""

    name: str
    placement: str = "pervasive"
    routing: str = "sp"
    cooperation: bool = False
    #: Extra multiplier on every instantiated cache's budget.
    budget_multiplier: float = 1.0
    #: Rescale budgets so the total equals the pervasive deployment's
    #: total (EDGE-Norm: "multiply the budget of the edge caches by an
    #: appropriate constant ... so the total cache capacity is the same").
    normalize_budget: bool = False
    #: Give every instantiated cache unbounded capacity (Inf-Budget).
    infinite: bool = False
    #: On-path insertion policy (see :data:`INSERTIONS`).
    insertion: str = "everywhere"
    #: Insertion probability when ``insertion == "probabilistic"``.
    insertion_probability: float = 0.5

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}; choose from {PLACEMENTS}"
            )
        if self.routing not in ROUTINGS:
            raise ValueError(
                f"unknown routing {self.routing!r}; choose from {ROUTINGS}"
            )
        if self.cooperation and self.routing != "sp":
            # nr's scope already holds every path node's siblings, and
            # nr-global is an oracle over every cache.
            raise ValueError(
                f"cooperation applies to sp routing only, not {self.routing!r}"
            )
        if self.normalize_budget and self.placement == "none":
            # There is no cache to rescale to the pervasive total.
            raise ValueError("normalize_budget needs a placement with caches")
        if not self.budget_multiplier > 0:  # NaN fails this too
            raise ValueError(
                f"budget_multiplier must be > 0, got {self.budget_multiplier}"
            )
        if self.insertion not in INSERTIONS:
            raise ValueError(
                f"unknown insertion {self.insertion!r}; choose from "
                f"{INSERTIONS}"
            )
        if not 0.0 <= self.insertion_probability <= 1.0:
            raise ValueError("insertion_probability must be in [0, 1]")

    def cache_depths(self, tree: AccessTree) -> tuple[int, ...]:
        """Tree depths that carry caches under this placement."""
        if self.placement == "pervasive":
            return tuple(range(tree.depth + 1))
        if self.placement == "edge":
            return (tree.depth,)
        if self.placement == "none":
            return ()
        # two_levels: the edge and the level just above it.
        if tree.depth == 0:
            return (0,)
        return (tree.depth - 1, tree.depth)

    def cache_locals(self, tree: AccessTree) -> list[int]:
        """Tree-local indices of cache-enabled nodes."""
        locals_: list[int] = []
        for depth in self.cache_depths(tree):
            locals_.extend(tree.level_nodes(depth))
        return locals_

    def effective_multiplier(self, tree: AccessTree) -> float:
        """Total budget scaling applied to each instantiated cache.

        With ``normalize_budget`` the per-cache budget is scaled by
        ``tree.size / num_cache_nodes`` so the placement's total equals a
        pervasive deployment's total (on binary trees with edge placement
        this is the paper's "multiply ... by 2" example, approximately).
        """
        multiplier = self.budget_multiplier
        if self.normalize_budget:
            multiplier *= tree.size / len(self.cache_locals(tree))
        return multiplier


# ---------------------------------------------------------------------------
# The named designs used throughout the paper.
# ---------------------------------------------------------------------------

#: The normalization baseline: no caches, so the origin serves every
#: request.
NO_CACHE = Architecture("NO-CACHE", placement="none")
#: Pervasive caching, shortest-path-to-origin routing.
ICN_SP = Architecture("ICN-SP", placement="pervasive", routing="sp")
#: Pervasive caching with (zero-cost) nearest-replica routing.
ICN_NR = Architecture("ICN-NR", placement="pervasive", routing="nr")
#: Ablation: nearest-replica routing with a network-wide oracle.
ICN_NR_GLOBAL = Architecture(
    "ICN-NR-Global", placement="pervasive", routing="nr-global"
)
#: Caches only at the access-tree leaves.
EDGE = Architecture("EDGE", placement="edge", routing="sp")
#: EDGE with scoped sibling cooperation.
EDGE_COOP = Architecture("EDGE-Coop", placement="edge", routing="sp",
                         cooperation=True)
#: EDGE with budgets rescaled to the pervasive total.
EDGE_NORM = Architecture("EDGE-Norm", placement="edge", routing="sp",
                         normalize_budget=True)

#: Figure 6/7 line-up, in legend order.
BASELINE_ARCHITECTURES = (ICN_SP, ICN_NR, EDGE, EDGE_COOP, EDGE_NORM)

#: Figure 10's EDGE variants, in x-axis order ("Baseline" is plain EDGE).
EDGE_VARIANTS = (
    replace(EDGE, name="Baseline"),
    Architecture("2-Levels", placement="two_levels", routing="sp"),
    replace(EDGE_COOP, name="Coop"),
    Architecture("2-Levels-Coop", placement="two_levels", routing="sp",
                 cooperation=True),
    replace(EDGE_NORM, name="Norm"),
    Architecture("Norm-Coop", placement="edge", routing="sp",
                 cooperation=True, normalize_budget=True),
    Architecture("Double-Budget-Coop", placement="edge", routing="sp",
                 cooperation=True, normalize_budget=True, budget_multiplier=2.0),
)

#: Infinite-cache reference points (Figure 10, "Inf-Budget").
EDGE_INF = Architecture("EDGE-Inf", placement="edge", routing="sp", infinite=True)
ICN_NR_INF = Architecture("ICN-NR-Inf", placement="pervasive", routing="nr",
                          infinite=True)

_REGISTRY = {
    arch.name: arch
    for arch in (
        NO_CACHE,
        *BASELINE_ARCHITECTURES,
        *EDGE_VARIANTS,
        ICN_NR_GLOBAL,
        EDGE_INF,
        ICN_NR_INF,
    )
}


def architecture(name: str) -> Architecture:
    """Look up a named design (e.g. 'ICN-NR', 'EDGE-Coop', '2-Levels')."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown architecture {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None

"""Cache provisioning policies (Section 4.1, "Cache provisioning").

With ``O`` objects and ``R`` routers, the network-wide cache budget is
``F * R * O`` for a fraction ``F`` (the paper's baseline is F = 5%,
"based roughly on the CDN provisioning we observe").  Two splits:

* **uniform** — every router gets ``F * O`` slots;
* **population-proportional** — each PoP gets a share of the total
  proportional to its metro population, divided equally inside its
  access tree.

Budgets are returned as a per-global-node-id list of slot counts; the
architecture layer decides which of those nodes actually instantiate a
cache (that asymmetry is exactly why EDGE sees roughly half the total
budget of the pervasive designs on binary trees, and why EDGE-Norm
rescales it back).
"""

from __future__ import annotations

from ..topology.network import Network

#: The paper's baseline provisioning fraction (F = 5%).
DEFAULT_BUDGET_FRACTION = 0.05


def _check_fraction(fraction: float) -> None:
    # Written so NaN fails too: every comparison with NaN is False.
    if not fraction >= 0:
        raise ValueError(f"fraction must be >= 0, got {fraction}")


def total_budget(fraction: float, num_routers: int, num_objects: int) -> float:
    """Network-wide cache budget ``F * R * O`` in object slots."""
    _check_fraction(fraction)
    return fraction * num_routers * num_objects


def uniform_node_budgets(
    network: Network, fraction: float, num_objects: int
) -> list[float]:
    """Per-node budgets under the uniform split: every router gets F*O."""
    _check_fraction(fraction)
    return [fraction * num_objects] * network.num_nodes


def proportional_node_budgets(
    network: Network, fraction: float, num_objects: int
) -> list[float]:
    """Per-node budgets under the population-proportional split."""
    total = total_budget(fraction, network.num_nodes, num_objects)
    weights = network.pop_topology.population_weights()
    budgets = [0.0] * network.num_nodes
    for pop in range(network.num_pops):
        per_node = total * weights[pop] / network.tree_size
        base = network.root_gid(pop)
        for local in range(network.tree_size):
            budgets[base + local] = per_node
    return budgets


def node_budgets(
    network: Network,
    fraction: float,
    num_objects: int,
    split: str = "proportional",
) -> list[float]:
    """Dispatch on the split policy name ('uniform' or 'proportional')."""
    if split == "uniform":
        return uniform_node_budgets(network, fraction, num_objects)
    if split == "proportional":
        return proportional_node_budgets(network, fraction, num_objects)
    raise ValueError(f"unknown budget split {split!r}")

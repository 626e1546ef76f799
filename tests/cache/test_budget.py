"""Tests for cache provisioning policies."""

import pytest

from repro.cache import (
    DEFAULT_BUDGET_FRACTION,
    node_budgets,
    proportional_node_budgets,
    total_budget,
    uniform_node_budgets,
)


class TestTotalBudget:
    def test_formula(self):
        assert total_budget(0.05, 100, 1000) == pytest.approx(5000.0)

    def test_negative_fraction_rejected(self):
        for fraction in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="fraction"):
                total_budget(fraction, 10, 10)

    def test_paper_default_is_five_percent(self):
        assert DEFAULT_BUDGET_FRACTION == 0.05


class TestUniform:
    def test_every_router_gets_f_times_o(self, small_network):
        budgets = uniform_node_budgets(small_network, 0.05, 1000)
        assert len(budgets) == small_network.num_nodes
        assert all(b == pytest.approx(50.0) for b in budgets)

    def test_totals_match(self, small_network):
        budgets = uniform_node_budgets(small_network, 0.1, 500)
        assert sum(budgets) == pytest.approx(
            total_budget(0.1, small_network.num_nodes, 500)
        )

    def test_negative_fraction_rejected(self, small_network):
        for fraction in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="fraction"):
                uniform_node_budgets(small_network, fraction, 500)


class TestProportional:
    def test_pop_share_proportional_to_population(self, small_network):
        budgets = proportional_node_budgets(small_network, 0.05, 1000)
        # Pop 0 has half the total population.
        pop0 = sum(budgets[small_network.gid(0, i)] for i in range(7))
        assert pop0 == pytest.approx(0.5 * sum(budgets))

    def test_equal_within_a_tree(self, small_network):
        budgets = proportional_node_budgets(small_network, 0.05, 1000)
        tree_budgets = {budgets[small_network.gid(1, i)] for i in range(7)}
        assert len(tree_budgets) == 1

    def test_total_preserved(self, small_network):
        budgets = proportional_node_budgets(small_network, 0.05, 1000)
        assert sum(budgets) == pytest.approx(
            total_budget(0.05, small_network.num_nodes, 1000)
        )


class TestDispatch:
    def test_by_name(self, small_network):
        uniform = node_budgets(small_network, 0.05, 100, "uniform")
        proportional = node_budgets(small_network, 0.05, 100, "proportional")
        assert uniform != proportional
        assert len(uniform) == len(proportional) == small_network.num_nodes

    def test_unknown_split_rejected(self, small_network):
        with pytest.raises(ValueError):
            node_budgets(small_network, 0.05, 100, "quadratic")

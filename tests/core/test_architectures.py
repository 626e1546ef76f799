"""Tests for the architecture registry and placement logic."""

from dataclasses import replace

import pytest

from repro.core import (
    BASELINE_ARCHITECTURES,
    EDGE,
    EDGE_COOP,
    EDGE_NORM,
    EDGE_VARIANTS,
    ICN_NR,
    ICN_NR_GLOBAL,
    ICN_SP,
    NO_CACHE,
    Architecture,
    architecture,
)
from repro.core.architectures import _REGISTRY
from repro.topology import AccessTree


class TestRegistry:
    def test_baseline_lineup_matches_figure6_legend(self):
        names = [a.name for a in BASELINE_ARCHITECTURES]
        assert names == ["ICN-SP", "ICN-NR", "EDGE", "EDGE-Coop", "EDGE-Norm"]

    def test_figure10_variants_in_axis_order(self):
        names = [a.name for a in EDGE_VARIANTS]
        assert names == [
            "Baseline", "2-Levels", "Coop", "2-Levels-Coop",
            "Norm", "Norm-Coop", "Double-Budget-Coop",
        ]

    def test_lookup_by_name(self):
        assert architecture("ICN-NR") is ICN_NR
        assert architecture("ICN-NR-Global") is ICN_NR_GLOBAL

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            architecture("CDN")

    def test_routing_kinds(self):
        assert ICN_SP.routing == "sp"
        assert ICN_NR.routing == "nr"
        assert ICN_NR_GLOBAL.routing == "nr-global"
        assert EDGE.routing == "sp"


class TestValidation:
    def test_bad_placement(self):
        with pytest.raises(ValueError):
            Architecture("x", placement="core")

    def test_bad_routing(self):
        with pytest.raises(ValueError):
            Architecture("x", routing="anycast")

    def test_bad_multiplier(self):
        for multiplier in (0, float("nan")):
            with pytest.raises(ValueError, match="budget_multiplier"):
                Architecture("x", budget_multiplier=multiplier)

    @pytest.mark.parametrize("routing", ["nr", "nr-global"])
    def test_cooperation_is_sp_only(self, routing):
        with pytest.raises(ValueError, match="cooperation"):
            Architecture("x", routing=routing, cooperation=True)
        Architecture("x", routing="sp", cooperation=True)

    def test_normalization_needs_caches(self):
        with pytest.raises(ValueError, match="normalize_budget"):
            Architecture("x", placement="none", normalize_budget=True)

    def test_every_registered_design_constructs(self):
        for arch in _REGISTRY.values():
            assert replace(arch) == arch


class TestPlacement:
    def test_pervasive_covers_all_depths(self):
        tree = AccessTree(2, 5)
        assert ICN_SP.cache_depths(tree) == (0, 1, 2, 3, 4, 5)
        assert len(ICN_SP.cache_locals(tree)) == 63

    def test_edge_covers_leaves_only(self):
        tree = AccessTree(2, 5)
        assert EDGE.cache_depths(tree) == (5,)
        locals_ = EDGE.cache_locals(tree)
        assert len(locals_) == 32
        assert all(tree.is_leaf(x) for x in locals_)

    def test_two_levels(self):
        tree = AccessTree(2, 5)
        arch = architecture("2-Levels")
        assert arch.cache_depths(tree) == (4, 5)
        assert len(arch.cache_locals(tree)) == 48

    def test_two_levels_degenerates_on_single_node_tree(self):
        tree = AccessTree(2, 0)
        assert architecture("2-Levels").cache_depths(tree) == (0,)

    def test_no_cache_places_nothing(self):
        assert architecture("NO-CACHE") is NO_CACHE
        assert NO_CACHE.cache_locals(AccessTree(2, 5)) == []


class TestBudgetMultipliers:
    def test_edge_norm_restores_total_budget(self):
        tree = AccessTree(2, 5)
        # 63 nodes of budget vs 32 caches: scale by 63/32.
        assert EDGE_NORM.effective_multiplier(tree) == pytest.approx(63 / 32)

    def test_plain_edge_not_scaled(self):
        tree = AccessTree(2, 5)
        assert EDGE.effective_multiplier(tree) == 1.0

    def test_double_budget_coop_doubles_the_normalized_budget(self):
        tree = AccessTree(2, 5)
        arch = architecture("Double-Budget-Coop")
        assert arch.effective_multiplier(tree) == pytest.approx(2 * 63 / 32)

    def test_arity_shrinks_normalization(self):
        # The Table 4 effect: higher arity -> EDGE already holds most of
        # the total budget, so normalization approaches 1.
        k8 = AccessTree(8, 2)
        k2 = AccessTree(2, 5)
        assert (
            EDGE_NORM.effective_multiplier(k8)
            < EDGE_NORM.effective_multiplier(k2)
        )

    def test_coop_flag(self):
        assert EDGE_COOP.cooperation
        assert not EDGE.cooperation

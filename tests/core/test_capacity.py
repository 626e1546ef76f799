"""Tests for the serving-capacity model."""

import pytest

from repro.core import CapacityModel, CapacityTracker


class TestModel:
    def test_validation(self):
        for per_window in (0, float("nan")):
            with pytest.raises(ValueError, match="per_window"):
                CapacityModel(per_window=per_window)
        for window in (0, float("nan")):
            with pytest.raises(ValueError, match="^window"):
                CapacityModel(per_window=1, window=window)


class TestTracker:
    def test_limit_enforced_within_window(self):
        tracker = CapacityTracker(CapacityModel(per_window=2, window=100), 4)
        assert tracker.try_serve(0, 0)
        assert tracker.try_serve(0, 1)
        assert not tracker.try_serve(0, 2)
        assert tracker.rejections == 1

    def test_window_rollover_resets_counts(self):
        tracker = CapacityTracker(CapacityModel(per_window=1, window=10), 2)
        assert tracker.try_serve(0, 0)
        assert not tracker.try_serve(0, 5)
        assert tracker.try_serve(0, 10)  # new window

    def test_nodes_counted_independently(self):
        tracker = CapacityTracker(CapacityModel(per_window=1, window=10), 3)
        assert tracker.try_serve(0, 0)
        assert tracker.try_serve(1, 1)
        assert not tracker.try_serve(0, 2)

    def test_force_serve_counts_against_window(self):
        tracker = CapacityTracker(CapacityModel(per_window=1, window=10), 2)
        tracker.force_serve(0, 0)
        assert not tracker.try_serve(0, 1)
        assert tracker.rejections == 1

    def test_force_serve_rolls_window(self):
        tracker = CapacityTracker(CapacityModel(per_window=1, window=10), 2)
        tracker.force_serve(0, 0)
        tracker.force_serve(0, 10)
        assert not tracker.try_serve(0, 11)

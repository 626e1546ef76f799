"""Request-serving capacity limits (Section 5.1, "Other parameters").

"We vary the request serving capacity.  In this case, the number of
queries each node can serve in a certain period of time is limited.  If
a request arrives at a cache that is overloaded, this request is
redirected to the next cache on the query path (or the origin)."

Time is measured in requests: every ``window`` consecutive requests form
one period, and each node may serve at most ``per_window`` of them.
Origins are exempt by default — somebody has to serve the request.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CapacityModel:
    """Static description of the serving-capacity limit."""

    per_window: int
    window: int = 1000

    def __post_init__(self) -> None:
        # Written so NaN fails too: every comparison with NaN is False.
        if not self.per_window >= 1:
            raise ValueError(f"per_window must be >= 1, got {self.per_window}")
        if not self.window >= 1:
            raise ValueError(f"window must be >= 1, got {self.window}")


class CapacityTracker:
    """Per-node served-request counters over sliding request windows."""

    def __init__(self, model: CapacityModel, num_nodes: int) -> None:
        self._model = model
        self._counts = [0] * num_nodes
        self._window_id = 0
        self.rejections = 0

    def try_serve(self, node: int, request_index: int) -> bool:
        """Reserve one serving slot at ``node``; False when overloaded."""
        window_id = request_index // self._model.window
        if window_id != self._window_id:
            self._window_id = window_id
            self._counts = [0] * len(self._counts)
        if self._counts[node] >= self._model.per_window:
            self.rejections += 1
            return False
        self._counts[node] += 1
        return True

    def force_serve(self, node: int, request_index: int) -> None:
        """Record a serve that cannot be refused (the origin)."""
        window_id = request_index // self._model.window
        if window_id != self._window_id:
            self._window_id = window_id
            self._counts = [0] * len(self._counts)
        self._counts[node] += 1

"""Liveness detection state (§3.2): per-node heartbeat words.

:class:`HeartbeatDetector` is the shared-memory half of node-death
detection: one heartbeat word per node in global memory, zeroed at boot.
Crash detection itself runs off the machine's crash hook today; beating
and scanning these words waits for ROADMAP item 14(c).
"""

from __future__ import annotations

from ...rack.machine import NodeContext


class HeartbeatDetector:
    """Per-node heartbeat words in global memory (f64 last-beat bits)."""

    def __init__(self, base: int, n_nodes: int) -> None:
        self.base = base
        self.n_nodes = n_nodes

    @staticmethod
    def region_size(n_nodes: int) -> int:
        return 8 * n_nodes

    def format(self, ctx: NodeContext) -> "HeartbeatDetector":
        for node in range(self.n_nodes):
            ctx.atomic_store(self.base + node * 8, 0)
        return self

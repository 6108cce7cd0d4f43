"""A compute node: cores, private DRAM, private cache, private clock."""

from __future__ import annotations

from typing import Optional

from .cache import NodeCache
from .clock import SimClock
from .memory import PhysicalMemory


class NodeCrashedError(Exception):
    """An operation was issued from (or targeted) a crashed node."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"node {node_id} has crashed")
        self.node_id = node_id


class Node:
    """One server in the rack.

    The paper's testbed nodes are Kunpeng 920s with 4x80 cores; the count
    is only advertised in the boot ROM's rack description — execution
    itself is modeled through the clock.
    """

    def __init__(
        self,
        node_id: int,
        n_cores: int,
        local_mem: PhysicalMemory,
        cache: NodeCache,
    ) -> None:
        self.node_id = node_id
        self.n_cores = n_cores
        self.local_mem = local_mem
        self.cache = cache
        self.clock = SimClock()
        self.alive = True

    def check_alive(self) -> None:
        if not self.alive:
            raise NodeCrashedError(self.node_id)

    def crash(self) -> None:
        """Kill the node: its cache contents (dirty lines included) vanish.

        This is the scenario fault boxes defend against — anything the
        node had not flushed to global memory is gone.
        """
        self.alive = False
        self.cache.invalidate_all()

    def restart(self, at_ns: Optional[float] = None) -> None:
        """Bring the node back with a cold cache."""
        self.alive = True
        self.cache.invalidate_all()
        if at_ns is not None:
            self.clock.sync_to(at_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "CRASHED"
        return f"Node({self.node_id}, {self.n_cores} cores, {state})"

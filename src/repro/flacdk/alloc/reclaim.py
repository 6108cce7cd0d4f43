"""Epoch-based memory reclamation, checkpoint-aware (§3.2, [47, 60]).

Freeing shared memory on a non-coherent rack is dangerous twice over: a
remote node may still be traversing the object, and — the paper's added
twist — a *checkpoint* may still reference the version being retired.
The reclaimer therefore frees a retired block only when

1. every node has announced an epoch past the retirement epoch, and
2. no checkpoint pin holds an epoch at or before it.

Epoch state lives in shared memory (a global epoch cell plus one
announcement cell per node, one pin cell per pin slot), so decisions are
made from globally visible facts, not Python-side convenience state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ...rack.machine import NodeContext

#: Announcement value meaning "this node is not in a read-side section".
IDLE = (1 << 64) - 1
#: Pin slot value meaning "unused".
UNPINNED = 0
#: Checkpoint pin cells laid out after the announcements.
PIN_SLOTS = 8


@dataclass
class _Retired:
    addr: int
    epoch: int
    free_fn: Callable[[int], None]


class EpochReclaimer:
    """Grace-period tracking over shared epoch cells.

    Shared layout at ``base``::

        +0                global epoch (starts at 1)
        +8 .. +8*n        per-node announcement cells (IDLE when quiescent)
        then              pin cells (UNPINNED when free)
    """

    def __init__(self, base: int, n_nodes: int) -> None:
        self.base = base
        self.n_nodes = n_nodes
        self._retired: Dict[int, List[_Retired]] = {}
        self.freed_count = 0

    def format(self, ctx: NodeContext) -> "EpochReclaimer":
        ctx.atomic_store(self.base, 1)
        ctx.atomic_store_many([self._announce_addr(n) for n in range(self.n_nodes)], IDLE)
        ctx.atomic_store_many([self._pin_addr(s) for s in range(PIN_SLOTS)], UNPINNED)
        return self

    # -- read-side ------------------------------------------------------------

    def enter(self, ctx: NodeContext) -> int:
        """Begin a read-side critical section; returns the epoch entered."""
        epoch = ctx.atomic_load(self.base)
        ctx.atomic_store(self._announce_addr(ctx.node_id), epoch)
        return epoch

    def exit(self, ctx: NodeContext) -> None:
        ctx.atomic_store(self._announce_addr(ctx.node_id), IDLE)

    # -- write-side -------------------------------------------------------------

    def retire(self, ctx: NodeContext, addr: int, free_fn: Callable[[int], None]) -> None:
        """Schedule ``addr`` for freeing once its epoch is safe."""
        epoch = ctx.atomic_load(self.base)
        self._retired.setdefault(ctx.node_id, []).append(_Retired(addr, epoch, free_fn))

    def advance(self, ctx: NodeContext) -> int:
        """Bump the global epoch; returns the new value."""
        return ctx.fetch_add(self.base, 1) + 1

    def safe_epoch(self, ctx: NodeContext) -> int:
        """Largest epoch strictly below every announcement and pin."""
        horizon = ctx.atomic_load(self.base)
        for node in range(self.n_nodes):
            announced = ctx.atomic_load(self._announce_addr(node))
            if announced != IDLE:
                horizon = min(horizon, announced)
        for slot in range(PIN_SLOTS):
            pinned = ctx.atomic_load(self._pin_addr(slot))
            if pinned != UNPINNED:
                horizon = min(horizon, pinned)
        return horizon - 1

    def reclaim(self, ctx: NodeContext) -> int:
        """Free this node's retired blocks whose epoch is safe; returns count."""
        safe = self.safe_epoch(ctx)
        mine = self._retired.get(ctx.node_id, [])
        still_waiting: List[_Retired] = []
        freed = 0
        for item in mine:
            if item.epoch <= safe:
                item.free_fn(item.addr)
                freed += 1
            else:
                still_waiting.append(item)
        self._retired[ctx.node_id] = still_waiting
        self.freed_count += freed
        return freed

    def advance_and_reclaim(self, ctx: NodeContext) -> int:
        self.advance(ctx)
        return self.reclaim(ctx)

    # -- layout -------------------------------------------------------------------------

    @staticmethod
    def region_size(n_nodes: int) -> int:
        return 8 * (1 + n_nodes + PIN_SLOTS)

    def _announce_addr(self, node_id: int) -> int:
        if not 0 <= node_id < self.n_nodes:
            raise ValueError(f"node {node_id} outside reclaimer's rack")
        return self.base + 8 * (1 + node_id)

    def _pin_addr(self, slot: int) -> int:
        return self.base + 8 * (1 + self.n_nodes + slot)

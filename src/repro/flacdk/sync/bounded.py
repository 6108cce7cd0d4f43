"""Bounded incoherence — the programming model of the paper's ref [49].

Between "always invalidate" (every read pays global latency) and "never
invalidate" (unbounded staleness) sits a contract many kernel consumers
actually want: *reads may be stale by at most T nanoseconds*.  A reader
keeps using its cached copy until the copy's age exceeds the bound, then
refreshes with one invalidate+load.  Monitoring data, load statistics,
routing hints, and registry lookups all tolerate bounded staleness —
and their reads become cache hits.

The cell carries a version word so consumers (and tests) can measure
the staleness they actually observed.

Layout::

    +0   version (atomic, bumped per write)
    +8   publish timestamp (f64 bits)
    +16  payload
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ...rack.machine import NodeContext

_HEADER = 16


@dataclass
class StalenessStats:
    fresh_reads: int = 0
    cached_reads: int = 0
    #: worst version lag ever observed by a refresh
    max_version_lag: int = 0


class BoundedStaleCell:
    """A shared value whose readers tolerate at most ``bound_ns`` staleness."""

    def __init__(self, base: int, capacity: int, bound_ns: float) -> None:
        if capacity < 1:
            raise ValueError("cell needs at least one payload byte")
        if bound_ns < 0:
            raise ValueError("staleness bound cannot be negative")
        self.base = base
        self.capacity = capacity
        self.bound_ns = bound_ns
        #: node -> (sim time of last refresh, version seen at refresh)
        self._last_refresh: Dict[int, Tuple[float, int]] = {}
        self.stats = StalenessStats()

    def format(self, ctx: NodeContext) -> "BoundedStaleCell":
        ctx.atomic_store(self.base, 0)
        ctx.store(self.base + 8, struct.pack("<d", 0.0), bypass_cache=True)
        return self

    # -- writer -------------------------------------------------------------------

    def write(self, ctx: NodeContext, payload: bytes) -> int:
        """Publish a new value; returns its version."""
        if len(payload) > self.capacity:
            raise ValueError(f"payload of {len(payload)} B exceeds capacity {self.capacity}")
        ctx.store(self.base + 8, struct.pack("<d", ctx.now()) )
        ctx.store(self.base + _HEADER, payload)
        ctx.flush(self.base + 8, 8 + len(payload) + _HEADER - 8)
        ctx.fence()
        version = ctx.fetch_add(self.base, 1) + 1
        # the writer's own cache is now authoritative for itself
        self._last_refresh[ctx.node_id] = (ctx.now(), version)
        return version

    # -- reader --------------------------------------------------------------------

    def read(self, ctx: NodeContext, size: Optional[int] = None) -> bytes:
        """Read within the staleness contract.

        Inside the bound: a plain cached load (cheap; may lag by up to
        ``bound_ns``).  Outside it: invalidate + load + version check.
        """
        size = self.capacity if size is None else size
        last = self._last_refresh.get(ctx.node_id)
        if last is not None and ctx.now() - last[0] <= self.bound_ns:
            self.stats.cached_reads += 1
            return ctx.load(self.base + _HEADER, size)
        return self._refresh(ctx, size)

    def read_fresh(self, ctx: NodeContext, size: Optional[int] = None) -> bytes:
        """Bypass the contract: always refresh (bound = 0 semantics)."""
        return self._refresh(ctx, self.capacity if size is None else size)

    def observed_version(self, ctx: NodeContext) -> int:
        """The version this node last refreshed to (0 = never)."""
        last = self._last_refresh.get(ctx.node_id)
        return last[1] if last else 0

    def version_lag(self, ctx: NodeContext) -> int:
        """How many writes behind this node's view may be right now."""
        return ctx.atomic_load(self.base) - self.observed_version(ctx)

    def _refresh(self, ctx: NodeContext, size: int) -> bytes:
        previous = self.observed_version(ctx)
        version = ctx.atomic_load(self.base)
        ctx.invalidate(self.base + 8, 8 + size + _HEADER - 8)
        data = ctx.load(self.base + _HEADER, size)
        self._last_refresh[ctx.node_id] = (ctx.now(), version)
        self.stats.fresh_reads += 1
        self.stats.max_version_lag = max(self.stats.max_version_lag, version - previous)
        return data

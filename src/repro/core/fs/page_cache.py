"""The rack-shared page cache (§3.4) — FlacFS's centrepiece.

One copy of every cached file page, in global memory, indexed by a
shared radix tree keyed ``(file_id, page_index)``.  All nodes hit the
same copy, which is exactly the paper's argument: no per-node duplicate
pages, and the saved memory becomes extra cache capacity.

Two mechanisms from the paper's citations [37, 38] handle the hard
cases of a *shared* cache:

* **multi-version updates** — an updater never mutates a page that other
  nodes may be reading mid-line; it writes a fresh frame and CASes the
  tree slot, retiring the old frame through epoch reclamation;
* **asynchronous write-back** — dirty pages are queued and flushed to
  the block device by an explicit daemon step, off the critical path.

Dirty state is kept *in the tree value*: frame addresses are page
aligned, so bit 0 of the value is the dirty flag — updated with CAS,
visible rack-wide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ...flacdk.alloc import EpochReclaimer, FrameAllocator
from ...flacdk.structures import SharedRadixTree
from ...rack.machine import NodeContext
from ...telemetry import TELEMETRY as _TEL

_SUB = "core.fs"

PAGE_SIZE = 4096
_DIRTY = 1
_FILE_BITS = 20
_PAGE_BITS = 28


class PageCacheError(Exception):
    pass


@dataclass
class PageCacheStats:
    hits: int = 0
    misses: int = 0
    loads_from_device: int = 0
    writebacks: int = 0
    version_swaps: int = 0
    evictions: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def cache_key(file_id: int, page_idx: int) -> int:
    if file_id >> _FILE_BITS:
        raise PageCacheError(f"file id {file_id} exceeds {_FILE_BITS} bits")
    if page_idx >> _PAGE_BITS:
        raise PageCacheError(f"page index {page_idx} exceeds {_PAGE_BITS} bits")
    return (file_id << _PAGE_BITS) | page_idx


class SharedPageCache:
    """Rack-wide single-copy page cache over global frames."""

    def __init__(
        self,
        tree: SharedRadixTree,
        frames: FrameAllocator,
        reclaimer: EpochReclaimer,
    ) -> None:
        self.tree = tree
        self.frames = frames
        self.reclaimer = reclaimer
        self.stats = PageCacheStats()
        #: (file_id, page_idx) touched since the last writeback sweep.
        self._dirty_hint: List[Tuple[int, int]] = []

    # -- read path -------------------------------------------------------------------

    def get_page(
        self,
        ctx: NodeContext,
        file_id: int,
        page_idx: int,
        loader: Optional[Callable[[NodeContext], bytes]] = None,
    ) -> Optional[int]:
        """Frame address of the cached page, loading on miss.

        ``loader`` fetches the page's content (device read / zero fill);
        without one, a miss returns None.
        """
        key = cache_key(file_id, page_idx)
        value = self.tree.lookup(ctx, key)
        if value is not None:
            self.stats.hits += 1
            if _TEL.enabled:
                _TEL.registry.inc(ctx.node_id, _SUB, "page_cache.hit")
            return value & ~_DIRTY
        self.stats.misses += 1
        if _TEL.enabled:
            _TEL.registry.inc(ctx.node_id, _SUB, "page_cache.miss")
        if loader is None:
            return None
        content = loader(ctx)
        if len(content) > PAGE_SIZE:
            raise PageCacheError("loader returned more than a page")
        frame = self.frames.alloc(ctx)
        ctx.store(frame, content.ljust(PAGE_SIZE, b"\x00"), bypass_cache=True)
        self.stats.loads_from_device += 1
        if _TEL.enabled:
            _TEL.registry.inc(ctx.node_id, _SUB, "page_cache.device_load")
        winner = self.tree.insert_if_absent(ctx, key, frame)
        if winner != frame:
            self.frames.free(ctx, frame)  # racer cached it first
            return winner & ~_DIRTY
        return frame

    def get_pages(
        self,
        ctx: NodeContext,
        file_id: int,
        start_page: int,
        n_pages: int,
        loader_factory: Optional[Callable[[int], Callable[[NodeContext], bytes]]] = None,
    ) -> List[Optional[int]]:
        """Frame addresses of ``n_pages`` consecutive pages (gang lookup).

        One radix descend per leaf node instead of per page — the fast
        path for sequential file reads.  Misses are loaded individually
        through ``loader_factory(page_idx)`` when given.
        """
        values = self.tree.lookup_range(
            ctx, cache_key(file_id, start_page), n_pages
        )
        frames: List[Optional[int]] = []
        for i, value in enumerate(values):
            if value is not None:
                self.stats.hits += 1
                if _TEL.enabled:
                    _TEL.registry.inc(ctx.node_id, _SUB, "page_cache.hit")
                frames.append(value & ~_DIRTY)
            elif loader_factory is not None:
                # get_page counts the miss (stats and telemetry)
                frames.append(self.get_page(ctx, file_id, start_page + i, loader_factory(start_page + i)))
            else:
                self.stats.misses += 1
                if _TEL.enabled:
                    _TEL.registry.inc(ctx.node_id, _SUB, "page_cache.miss")
                frames.append(None)
        return frames

    def read(
        self,
        ctx: NodeContext,
        file_id: int,
        page_idx: int,
        offset: int,
        size: int,
        loader: Optional[Callable[[NodeContext], bytes]] = None,
    ) -> bytes:
        """Read within one cached page (invalidating stale local lines)."""
        if offset + size > PAGE_SIZE:
            raise PageCacheError("read crosses a page boundary")
        frame = self.get_page(ctx, file_id, page_idx, loader)
        if frame is None:
            return b""
        ctx.invalidate(frame + offset, size)
        return ctx.load(frame + offset, size)

    # -- write path -------------------------------------------------------------------

    def write(
        self,
        ctx: NodeContext,
        file_id: int,
        page_idx: int,
        offset: int,
        data: bytes,
        loader: Optional[Callable[[NodeContext], bytes]] = None,
    ) -> int:
        """Multi-version update of one page; returns the new frame.

        Builds the new version from the current one (read-modify-write of
        a whole page), publishes it with a CAS on the tree slot, and
        retires the displaced frame.  Concurrent readers keep reading the
        old version until they re-lookup; nobody observes a torn page.
        """
        if offset + len(data) > PAGE_SIZE:
            raise PageCacheError("write crosses a page boundary")
        key = cache_key(file_id, page_idx)
        full_page = offset == 0 and len(data) == PAGE_SIZE
        while True:
            current = self.tree.lookup(ctx, key)
            if full_page:
                # no read-modify-write: also the repair path for a page
                # whose current version is poisoned (UE) — never read it
                content = bytearray(data)
            elif current is None:
                base = loader(ctx) if loader else b""
                content = bytearray(base.ljust(PAGE_SIZE, b"\x00"))
            else:
                content = bytearray(
                    ctx.load(current & ~_DIRTY, PAGE_SIZE, bypass_cache=True)
                )
            content[offset : offset + len(data)] = data
            fresh = self.frames.alloc(ctx)
            ctx.store(fresh, bytes(content), bypass_cache=True)
            new_value = fresh | _DIRTY
            if current is None:
                winner = self.tree.insert_if_absent(ctx, key, new_value)
                if winner == new_value:
                    self._note_dirty(file_id, page_idx)
                    return fresh
            else:
                if self.tree.update(ctx, key, current, new_value):
                    self.stats.version_swaps += 1
                    self.reclaimer.retire(
                        ctx, current & ~_DIRTY, lambda addr: self.frames.free(ctx, addr)
                    )
                    self._note_dirty(file_id, page_idx)
                    return fresh
            self.frames.free(ctx, fresh)  # lost the race; retry

    def write_pages(
        self,
        ctx: NodeContext,
        file_id: int,
        start_page: int,
        contents: List[bytes],
    ) -> int:
        """Bulk-populate consecutive *full* pages (streaming-write path).

        One radix descend per leaf node; each page gets a fresh frame and
        a CAS publish.  Pages that already have a cached version fall
        back to the multi-version :meth:`write`.  Returns pages written.
        """
        if any(len(content) != PAGE_SIZE for content in contents):
            raise PageCacheError("write_pages takes whole pages only")
        slots = self.tree.slot_range(
            ctx, cache_key(file_id, start_page), len(contents), create=True
        )
        written = 0
        for i, (slot_addr, content) in enumerate(zip(slots, contents)):
            frame = self.frames.alloc(ctx)
            ctx.store(frame, content, bypass_cache=True)
            swapped, _ = ctx.cas(slot_addr, 0, frame | _DIRTY)
            if swapped:
                self._note_dirty(file_id, start_page + i)
                written += 1
            else:
                # an older version exists: multi-version replace instead
                self.frames.free(ctx, frame)
                self.write(ctx, file_id, start_page + i, 0, content)
                written += 1
        return written

    # -- write-back daemon ---------------------------------------------------------------

    def writeback(
        self,
        ctx: NodeContext,
        store: Callable[[NodeContext, int, int, bytes], None],
        limit: Optional[int] = None,
    ) -> int:
        """Flush dirty pages through ``store(ctx, file_id, page_idx, bytes)``.

        This is the asynchronous half: callers run it from a daemon
        context, not from the write path.  Returns pages cleaned.
        """
        cleaned = 0
        pending = self._dirty_hint
        self._dirty_hint = []
        for file_id, page_idx in pending:
            if limit is not None and cleaned >= limit:
                self._dirty_hint.append((file_id, page_idx))
                continue
            key = cache_key(file_id, page_idx)
            value = self.tree.lookup(ctx, key)
            if value is None or not value & _DIRTY:
                continue
            frame = value & ~_DIRTY
            content = ctx.load(frame, PAGE_SIZE, bypass_cache=True)
            store(ctx, file_id, page_idx, content)
            if self.tree.update(ctx, key, value, frame):  # clear dirty bit
                cleaned += 1
                self.stats.writebacks += 1
            else:
                self._dirty_hint.append((file_id, page_idx))  # re-dirtied meanwhile
        if _TEL.enabled:
            reg = _TEL.registry
            reg.inc(ctx.node_id, _SUB, "page_cache.writeback_pages", cleaned)
            reg.observe(ctx.node_id, _SUB, "page_cache.writeback_batch", cleaned)
        return cleaned

    def _note_dirty(self, file_id: int, page_idx: int) -> None:
        self._dirty_hint.append((file_id, page_idx))

    # -- eviction & teardown -----------------------------------------------------------------

    def evict_file(self, ctx: NodeContext, file_id: int, n_pages: int) -> int:
        """Drop a file's clean pages (dirty ones must be written back first)."""
        evicted = 0
        for page_idx in range(n_pages):
            key = cache_key(file_id, page_idx)
            value = self.tree.lookup(ctx, key)
            if value is None or value & _DIRTY:
                continue
            removed = self.tree.remove(ctx, key)
            if removed is None:
                continue
            self.reclaimer.retire(
                ctx, removed & ~_DIRTY, lambda addr: self.frames.free(ctx, addr)
            )
            evicted += 1
            self.stats.evictions += 1
        return evicted

    def cached_pages(self, ctx: NodeContext) -> int:
        return sum(1 for _ in self.tree.items(ctx))

    def cached_bytes(self, ctx: NodeContext) -> int:
        return self.cached_pages(ctx) * PAGE_SIZE

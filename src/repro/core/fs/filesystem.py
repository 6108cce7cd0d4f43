"""FlacFS — the memory file system with a rack-shared page cache (§3.4),
plus the per-node-cache baseline used by the E4 ablation.

Layout per the paper's split:

* data pages: **shared page cache** in global memory (one copy per rack);
* namespace/inodes/extents: **local replicas** synced via the op log;
* block layer: node-local simulated SSD (the cold store under the cache).

``PrivateCacheFS`` implements the same API the way a conventional
per-node OS would: every node keeps its own page cache, so N nodes
reading a file hold N copies and a node's first read is always cold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ...flacdk.alloc import EpochReclaimer, FrameAllocator, SharedHeap
from ...flacdk.arena import Arena
from ...flacdk.structures import SharedRadixTree
from ...flacdk.sync import OperationLog
from ...rack.machine import NodeContext, RackMachine
from ..params import OsCosts
from .block import BlockAllocator, BlockDevice
from .journal import MetadataJournal
from .metadata import FileNotFound, FsError, Inode, IsADirectory, MetadataStore
from .page_cache import PAGE_SIZE, SharedPageCache

#: the metadata operation log's entries and the shared heap the radix tree grows in
METADATA_LOG_ENTRIES = 4096
HEAP_BYTES = 1 << 22


@dataclass
class OpenFile:
    fd: int
    ino: int
    path: str


class FlacFS:
    """The shared-page-cache file system."""

    def __init__(
        self,
        machine: RackMachine,
        arena: Arena,
        costs: Optional[OsCosts] = None,
        cache_bytes: int = 1 << 23,
    ) -> None:
        self.machine = machine
        self.costs = costs or OsCosts()
        boot = machine.context(0)
        heap = SharedHeap(arena.take(HEAP_BYTES, align=64), HEAP_BYTES).format(boot)
        self.reclaimer = EpochReclaimer(
            arena.take(EpochReclaimer.region_size(len(machine.nodes)), align=8),
            len(machine.nodes),
        ).format(boot)
        frames = FrameAllocator(
            arena.take(cache_bytes, align=PAGE_SIZE), cache_bytes
        ).format(boot)
        tree = SharedRadixTree(arena.take(8, align=8), heap).format(boot)
        self.page_cache = SharedPageCache(tree, frames, self.reclaimer)
        log = OperationLog(
            arena.take(OperationLog.region_size(METADATA_LOG_ENTRIES), align=64),
            METADATA_LOG_ENTRIES,
        ).format(boot)
        self.metadata = MetadataStore(log)
        self.journal = MetadataJournal(self.metadata, arena.take(8, align=8)).format(boot)
        #: the rack's backing store.  The block *software* layer is
        #: node-local (each node issues its own I/O), but the device is
        #: one pool — file blocks written by any node are readable by all.
        self.device = BlockDevice()
        self.blocks = BlockAllocator(self.device.spec.n_blocks)
        self._fds: Dict[int, OpenFile] = {}
        self._next_fd = 3

    # -- namespace ---------------------------------------------------------------------

    def create(self, ctx: NodeContext, path: str) -> int:
        self._charge_path(ctx, path)
        return self.metadata.create(ctx, path, is_dir=False)

    def mkdir(self, ctx: NodeContext, path: str) -> int:
        self._charge_path(ctx, path)
        return self.metadata.create(ctx, path, is_dir=True)

    def unlink(self, ctx: NodeContext, path: str) -> None:
        self._charge_path(ctx, path)
        inode = self.metadata.lookup(ctx, path)
        if not inode.is_dir:
            n_pages = (inode.size + PAGE_SIZE - 1) // PAGE_SIZE
            self.page_cache.evict_file(ctx, inode.ino, n_pages)
        self.metadata.unlink(ctx, path)

    def stat(self, ctx: NodeContext, path: str) -> Inode:
        self._charge_path(ctx, path)
        return self.metadata.lookup(ctx, path)

    def rename(self, ctx: NodeContext, src: str, dst: str) -> None:
        self._charge_path(ctx, src)
        self.metadata.rename(ctx, src, dst)

    def exists(self, ctx: NodeContext, path: str) -> bool:
        return self.metadata.exists(ctx, path)

    # -- file handles ------------------------------------------------------------------------

    def open(self, ctx: NodeContext, path: str, create: bool = False) -> int:
        self._charge_path(ctx, path)
        try:
            inode = self.metadata.lookup(ctx, path)
        except FileNotFound:
            if not create:
                raise
            ino = self.metadata.create(ctx, path, is_dir=False)
            inode = self.metadata.lookup(ctx, path)
        if inode.is_dir:
            raise IsADirectory(path)
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = OpenFile(fd, inode.ino, path)
        return fd

    def close(self, ctx: NodeContext, fd: int) -> None:
        self._fds.pop(fd, None)

    # -- data path -----------------------------------------------------------------------------

    def write(self, ctx: NodeContext, fd: int, offset: int, data: bytes) -> int:
        """Write through the shared page cache.

        Partial pages take the multi-version update path; runs of whole
        aligned pages take the bulk streaming path (one radix descend
        per leaf node) — the common case for spills and image layers.
        """
        handle = self._handle(fd)
        ctx.advance(self.costs.syscall_ns)
        pos = 0
        while pos < len(data):
            page_idx = (offset + pos) // PAGE_SIZE
            page_off = (offset + pos) % PAGE_SIZE
            if page_off == 0 and len(data) - pos >= PAGE_SIZE:
                n_full = (len(data) - pos) // PAGE_SIZE
                contents = [
                    data[pos + i * PAGE_SIZE : pos + (i + 1) * PAGE_SIZE]
                    for i in range(n_full)
                ]
                self.page_cache.write_pages(ctx, handle.ino, page_idx, contents)
                pos += n_full * PAGE_SIZE
                continue
            chunk = min(len(data) - pos, PAGE_SIZE - page_off)
            loader = self._loader(handle.ino, page_idx)
            self.page_cache.write(
                ctx, handle.ino, page_idx, page_off, data[pos : pos + chunk], loader
            )
            pos += chunk
        inode = self.metadata.lookup(ctx, handle.path)
        new_size = max(inode.size, offset + len(data))
        if new_size != inode.size:
            self.metadata.set_size(ctx, handle.ino, new_size)
        return len(data)

    def read(self, ctx: NodeContext, fd: int, offset: int, size: int) -> bytes:
        handle = self._handle(fd)
        ctx.advance(self.costs.syscall_ns)
        inode = self.metadata.lookup(ctx, handle.path)
        size = max(0, min(size, inode.size - offset))
        if size <= 0:
            return b""
        first_page = offset // PAGE_SIZE
        last_page = (offset + size - 1) // PAGE_SIZE
        frames = self.page_cache.get_pages(
            ctx,
            handle.ino,
            first_page,
            last_page - first_page + 1,
            loader_factory=lambda page_idx: self._loader(handle.ino, page_idx),
        )
        out = bytearray()
        pos = 0
        while pos < size:
            page_idx = (offset + pos) // PAGE_SIZE
            page_off = (offset + pos) % PAGE_SIZE
            chunk = min(size - pos, PAGE_SIZE - page_off)
            frame = frames[page_idx - first_page]
            ctx.invalidate(frame + page_off, chunk)
            out += ctx.load(frame + page_off, chunk)
            pos += chunk
        return bytes(out)

    def truncate(self, ctx: NodeContext, fd: int, size: int) -> None:
        handle = self._handle(fd)
        ctx.advance(self.costs.syscall_ns)
        self.metadata.set_size(ctx, handle.ino, size)

    def fsync(self, ctx: NodeContext, fd: Optional[int] = None) -> int:
        """Synchronous write-back of dirty pages (all files when fd=None)."""
        ctx.advance(self.costs.syscall_ns)
        return self.page_cache.writeback(ctx, self._store_page)

    def writeback_daemon_step(self, ctx: NodeContext, limit: int = 64) -> int:
        """The asynchronous half: run from a daemon/idle context."""
        return self.page_cache.writeback(ctx, self._store_page, limit=limit)

    def remount(self, ctx: NodeContext) -> int:
        """Rebuild this node's metadata replica from the shared log.

        The recovery path after a node restart (or a rack power cycle on
        persistent global memory): node-local replicas are gone, but the
        metadata op log lives in the global pool, so one bulk replay
        restores the namespace.  Returns ops replayed.
        """
        from .metadata import _Namespace

        replica = self.metadata.nr.replica(ctx)
        replica.state = _Namespace()
        replica.applied = 0
        before = replica.applied
        replica.read(ctx, lambda ns: None)
        return replica.applied - before

    # -- internals -----------------------------------------------------------------------------------

    def _handle(self, fd: int) -> OpenFile:
        try:
            return self._fds[fd]
        except KeyError:
            raise FsError(f"bad file descriptor {fd}") from None

    def _loader(self, ino: int, page_idx: int):
        def load(ctx: NodeContext) -> bytes:
            block_no = self.metadata.block_of(ctx, ino, page_idx)
            if block_no is None:
                return b""  # hole: zero page
            return self.device.read_block(ctx, block_no)

        return load

    def _store_page(self, ctx: NodeContext, ino: int, page_idx: int, content: bytes) -> None:
        block_no = self.metadata.block_of(ctx, ino, page_idx)
        if block_no is None:
            block_no = self.blocks.alloc()
            self.metadata.map_block(ctx, ino, page_idx, block_no)
        self.device.write_block(ctx, block_no, content)

    def _charge_path(self, ctx: NodeContext, path: str) -> None:
        components = max(1, path.count("/"))
        ctx.advance(self.costs.path_component_ns * components + self.costs.metadata_op_ns)

    # -- capacity accounting -------------------------------------------------------------------

    def cache_footprint_bytes(self, ctx: NodeContext) -> int:
        """Rack-wide memory spent on cached file pages (single copy)."""
        return self.page_cache.cached_bytes(ctx)


class PrivateCacheFS:
    """Baseline: per-node private page caches over a shared block device.

    Models today's disaggregated deployments (Figure 1a): each node's
    cache is private DRAM, so the same file cached on N nodes costs N
    copies and a node's first access never benefits from its neighbour.
    """

    def __init__(self, flacfs_like_device: Optional[BlockDevice] = None) -> None:
        self.device = flacfs_like_device or BlockDevice()
        self.blocks = BlockAllocator(self.device.spec.n_blocks)
        #: file blobs by path (authoritative store, behind the caches)
        self._files: Dict[str, Dict[int, int]] = {}
        self._sizes: Dict[str, int] = {}
        #: per-node private cache: node -> {(path, page_idx) -> bytes}
        self._caches: Dict[int, Dict[Tuple[str, int], bytes]] = {}
        self.hits = 0
        self.misses = 0

    def create(self, ctx: NodeContext, path: str) -> None:
        if path in self._files:
            raise FsError(f"{path} exists")
        self._files[path] = {}
        self._sizes[path] = 0

    def write(self, ctx: NodeContext, path: str, offset: int, data: bytes) -> None:
        extents = self._files[path]
        pos = 0
        while pos < len(data):
            page_idx = (offset + pos) // PAGE_SIZE
            page_off = (offset + pos) % PAGE_SIZE
            chunk = min(len(data) - pos, PAGE_SIZE - page_off)
            block_no = extents.get(page_idx)
            if block_no is None:
                block_no = self.blocks.alloc()
                extents[page_idx] = block_no
                page = bytearray(PAGE_SIZE)
            else:
                page = bytearray(self.device.read_block(ctx, block_no))
            page[page_off : page_off + chunk] = data[pos : pos + chunk]
            self.device.write_block(ctx, block_no, bytes(page))
            cache = self._caches.setdefault(ctx.node_id, {})
            cache[(path, page_idx)] = bytes(page)
            pos += chunk
        self._sizes[path] = max(self._sizes[path], offset + len(data))

    def read(self, ctx: NodeContext, path: str, offset: int, size: int) -> bytes:
        size = max(0, min(size, self._sizes.get(path, 0) - offset))
        cache = self._caches.setdefault(ctx.node_id, {})
        out = bytearray()
        pos = 0
        while pos < size:
            page_idx = (offset + pos) // PAGE_SIZE
            page_off = (offset + pos) % PAGE_SIZE
            chunk = min(size - pos, PAGE_SIZE - page_off)
            page = cache.get((path, page_idx))
            if page is None:
                self.misses += 1
                block_no = self._files[path].get(page_idx)
                page = (
                    self.device.read_block(ctx, block_no)
                    if block_no is not None
                    else bytes(PAGE_SIZE)
                )
                cache[(path, page_idx)] = page
                # private DRAM fill
                ctx.advance(PAGE_SIZE * 0.04)
            else:
                self.hits += 1
                ctx.advance(PAGE_SIZE * 0.01)
            out += page[page_off : page_off + chunk]
            pos += chunk
        return bytes(out)

    def cache_footprint_bytes(self) -> int:
        """Rack-wide memory spent on cached pages (duplicates included)."""
        return sum(len(cache) for cache in self._caches.values()) * PAGE_SIZE

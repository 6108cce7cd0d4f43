"""FlacFS — the FlacOS file system (§3.4).

Shared page cache in global memory (multi-version updates, async
write-back), node-local replicated metadata with bulk sync (its op log is the
journal), and a node-local block layer.  ``PrivateCacheFS`` is the
per-node-cache baseline for the E4 ablation.
"""

from .block import BlockAllocator, BlockDevice, BlockDeviceError, BlockDeviceSpec
from .filesystem import FlacFS, OpenFile, PrivateCacheFS
from .metadata import (
    FileExists,
    FileNotFound,
    FsError,
    Inode,
    IsADirectory,
    MetadataStore,
    NotADirectory,
    ROOT_INO,
)
from .page_cache import PAGE_SIZE, PageCacheError, PageCacheStats, SharedPageCache, cache_key

__all__ = [
    "BlockAllocator",
    "BlockDevice",
    "BlockDeviceError",
    "BlockDeviceSpec",
    "FileExists",
    "FileNotFound",
    "FlacFS",
    "FsError",
    "Inode",
    "IsADirectory",
    "MetadataStore",
    "NotADirectory",
    "OpenFile",
    "PAGE_SIZE",
    "PageCacheError",
    "PageCacheStats",
    "PrivateCacheFS",
    "ROOT_INO",
    "SharedPageCache",
    "cache_key",
]

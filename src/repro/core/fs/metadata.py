"""FlacFS metadata: node-local structures with bulk synchronisation (§3.4).

Metadata is trees and small random accesses — the worst possible shape
for global memory — so the paper keeps it local and synchronises in
bulk.  Here the whole namespace (dentries + inodes) is a replicated
state machine: every node holds a local replica it reads at local
speed, and mutations go through the shared op log, which batches
naturally (a node replays all missed ops in one bulk pass at its next
sync point).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ...flacdk.sync import NodeReplication, OperationLog
from ...rack.machine import NodeContext

ROOT_INO = 1


class FsError(Exception):
    pass


class FileNotFound(FsError):
    pass


class FileExists(FsError):
    pass


class NotADirectory(FsError):
    pass


class IsADirectory(FsError):
    pass


@dataclass
class Inode:
    ino: int
    is_dir: bool
    size: int = 0
    nlink: int = 1
    mtime_ns: float = 0.0
    #: page index -> device block number (extent map; node-local view).
    blocks: Dict[int, int] = field(default_factory=dict)
    #: directory entries: name -> ino (directories only).
    children: Dict[str, int] = field(default_factory=dict)


class _Namespace:
    """One node's replica of the FS namespace."""

    def __init__(self) -> None:
        self.inodes: Dict[int, Inode] = {ROOT_INO: Inode(ROOT_INO, is_dir=True, nlink=2)}
        self.next_ino = ROOT_INO + 1

    # ---- pure-local lookups ----

    def resolve(self, path: str) -> Inode:
        inode = self.inodes[ROOT_INO]
        for part in _parts(path):
            if not inode.is_dir:
                raise NotADirectory(f"{part!r} reached through a file")
            child = inode.children.get(part)
            if child is None:
                raise FileNotFound(path)
            inode = self.inodes[child]
        return inode

    def parent_of(self, path: str) -> Tuple[Inode, str]:
        parts = _parts(path)
        if not parts:
            raise FsError("root has no parent")
        parent = self.inodes[ROOT_INO]
        for part in parts[:-1]:
            child = parent.children.get(part)
            if child is None:
                raise FileNotFound(path)
            parent = self.inodes[child]
            if not parent.is_dir:
                raise NotADirectory(path)
        return parent, parts[-1]

    # ---- mutations (applied identically on every replica) ----

    def apply(self, op: Tuple) -> Any:
        verb = op[0]
        handler = getattr(self, f"_op_{verb}", None)
        if handler is None:
            raise FsError(f"unknown metadata op {verb!r}")
        return handler(*op[1:])

    def _op_create(self, path: str, is_dir: bool, mtime_ns: float) -> int:
        parent, name = self.parent_of(path)
        if not parent.is_dir:
            raise NotADirectory(path)
        if name in parent.children:
            raise FileExists(path)
        ino = self.next_ino
        self.next_ino += 1
        self.inodes[ino] = Inode(ino, is_dir=is_dir, mtime_ns=mtime_ns, nlink=2 if is_dir else 1)
        parent.children[name] = ino
        return ino

    def _op_set_size(self, ino: int, size: int, mtime_ns: float) -> None:
        inode = self.inodes[ino]
        inode.size = size
        inode.mtime_ns = mtime_ns

    def _op_map_block(self, ino: int, page_idx: int, block_no: int) -> None:
        self.inodes[ino].blocks[page_idx] = block_no


class MetadataStore:
    """Replicated namespace: local reads, logged mutations."""

    def __init__(self, log: OperationLog) -> None:
        self.nr: NodeReplication[_Namespace] = NodeReplication(
            log, factory=_Namespace, apply_fn=lambda ns, op: ns.apply(op)
        )

    # -- reads (sync then local) ---------------------------------------------------

    def lookup(self, ctx: NodeContext, path: str) -> Inode:
        return self.nr.replica(ctx).read(ctx, lambda ns: ns.resolve(path))

    def exists(self, ctx: NodeContext, path: str) -> bool:
        try:
            self.lookup(ctx, path)
            return True
        except FileNotFound:
            return False

    def block_of(self, ctx: NodeContext, ino: int, page_idx: int) -> Optional[int]:
        return self.nr.replica(ctx).read(
            ctx, lambda ns: ns.inodes[ino].blocks.get(page_idx)
        )

    # -- mutations (logged) -----------------------------------------------------------

    def create(self, ctx: NodeContext, path: str, is_dir: bool = False) -> int:
        return self.nr.replica(ctx).execute(ctx, ("create", path, is_dir, ctx.now()))

    def set_size(self, ctx: NodeContext, ino: int, size: int) -> None:
        self.nr.replica(ctx).execute(ctx, ("set_size", ino, size, ctx.now()))

    def map_block(self, ctx: NodeContext, ino: int, page_idx: int, block_no: int) -> None:
        self.nr.replica(ctx).execute(ctx, ("map_block", ino, page_idx, block_no))


def _parts(path: str) -> List[str]:
    if not path.startswith("/"):
        raise FsError(f"paths are absolute; got {path!r}")
    return [p for p in path.split("/") if p]

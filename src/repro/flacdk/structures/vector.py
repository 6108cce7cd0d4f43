"""Append-mostly shared vector of fixed-size records (§3.2).

Appenders reserve an index with one fetch-add, write the record, flush,
and commit with an atomic per-record word — the same publish discipline
as the operation log, but with random access.  Records can be updated in
place afterwards by an owner who coordinates through higher-level sync.

Layout::

    +0    count (records reserved, atomic)
    +8    capacity
    +16   record size
    +64   records

Record layout::

    +0    commit word (0 = in flight, 1 = committed)
    +8    payload (record_size bytes)
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from ...rack.machine import NodeContext
from ..sync.oplog import _align8

_HEADER = 64
_REC_META = 8


class VectorError(Exception):
    pass


class VectorFullError(VectorError):
    pass


class SharedVector:
    """Bounded shared vector; every node may append and read."""

    def __init__(self, base: int, capacity: int, record_size: int) -> None:
        if capacity < 1 or record_size < 1:
            raise ValueError("capacity and record size must be >= 1")
        self.base = base
        self.capacity = capacity
        self.record_size = record_size
        self.slot_size = _align8(_REC_META + record_size)

    @staticmethod
    def region_size(capacity: int, record_size: int) -> int:
        return _HEADER + capacity * _align8(_REC_META + record_size)

    def format(self, ctx: NodeContext) -> "SharedVector":
        ctx.atomic_store(self.base, 0)
        ctx.atomic_store(self.base + 8, self.capacity)
        ctx.atomic_store(self.base + 16, self.record_size)
        ctx.atomic_store_many([self._slot(idx) for idx in range(self.capacity)], 0)
        return self

    def append(self, ctx: NodeContext, record: bytes) -> int:
        """Append one record; returns its index."""
        self._check_record(record)
        idx = ctx.fetch_add(self.base, 1)
        if idx >= self.capacity:
            raise VectorFullError(f"vector at {self.base:#x} full ({self.capacity})")
        slot = self._slot(idx)
        ctx.store(slot + _REC_META, record)
        ctx.flush(slot + _REC_META, self.record_size)
        ctx.fence()
        ctx.atomic_store(slot, 1)
        return idx

    def get(self, ctx: NodeContext, idx: int) -> Optional[bytes]:
        """Read record ``idx``; None while the append is still in flight."""
        slot = self._slot(self._check_idx(idx))
        if ctx.atomic_load(slot) == 0:
            return None
        ctx.invalidate(slot + _REC_META, self.record_size)
        return ctx.load(slot + _REC_META, self.record_size)

    def update(self, ctx: NodeContext, idx: int, record: bytes) -> None:
        """Overwrite a committed record (caller provides mutual exclusion)."""
        self._check_record(record)
        slot = self._slot(self._check_idx(idx))
        if ctx.atomic_load(slot) == 0:
            raise VectorError(f"record {idx} was never committed")
        ctx.store(slot + _REC_META, record)
        ctx.flush(slot + _REC_META, self.record_size)

    def __len__(self) -> int:
        raise TypeError("use count(ctx): the length lives in shared memory")

    def count(self, ctx: NodeContext) -> int:
        return min(ctx.atomic_load(self.base), self.capacity)

    def scan(self, ctx: NodeContext) -> Iterator[Tuple[int, bytes]]:
        """Yield committed records in index order, skipping in-flight ones."""
        for idx in range(self.count(ctx)):
            record = self.get(ctx, idx)
            if record is not None:
                yield idx, record

    def _check_idx(self, idx: int) -> int:
        if not 0 <= idx < self.capacity:
            raise VectorError(f"index {idx} outside capacity {self.capacity}")
        return idx

    def _check_record(self, record: bytes) -> None:
        if len(record) != self.record_size:
            raise VectorError(
                f"record of {len(record)} B does not match record size {self.record_size}"
            )

    def _slot(self, idx: int) -> int:
        return self.base + _HEADER + idx * self.slot_size

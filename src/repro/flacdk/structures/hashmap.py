"""Shared hash tables under the three synchronisation disciplines (§3.2).

* :class:`LockedHashMap` — data and lock both in global memory.  Every
  operation takes an interconnect round trip for the lock plus
  invalidate/flush traffic for the buckets.  The strawman E3 ablates.
* :class:`ReplicatedDict` — node-replication: a local Python dict per
  node, mutations through the shared op log.  Reads are local.
* :class:`DelegatedDict` — key space partitioned across owner nodes;
  remote partitions are reached through delegation mailboxes.

All three expose the same ``put/get/delete`` surface so benchmarks swap
them freely.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
from typing import Any, Dict, List, Optional

from ...rack.machine import NodeContext
from ..sync.delegation import DelegationService
from ..sync.oplog import OperationLog, _align8
from ..sync.replication import NodeReplication
from ..sync.spinlock import GlobalSpinLock

_EMPTY, _USED, _TOMB = 0, 1, 2


def stable_hash(key: bytes) -> int:
    """Deterministic 64-bit key hash (Python's hash() is salted per run)."""
    return struct.unpack("<Q", hashlib.blake2b(key, digest_size=8).digest())[0]


class HashMapError(Exception):
    pass


class MapFullError(HashMapError):
    pass


class LockedHashMap:
    """Open-addressing table in global memory behind one global spinlock.

    Bucket layout::

        +0    state (0 empty / 1 used / 2 tombstone)
        +8    key hash
        +16   key length (u32) | value length (u32)
        +24   key bytes   (key_capacity)
        +24+K value bytes (value_capacity)
    """

    _BUCKET_META = 24

    def __init__(
        self,
        base: int,
        capacity: int,
        key_capacity: int = 64,
        value_capacity: int = 256,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.base = base
        self.capacity = capacity
        self.key_capacity = key_capacity
        self.value_capacity = value_capacity
        self.bucket_size = _align8(self._BUCKET_META + key_capacity + value_capacity)
        self.lock = GlobalSpinLock(base)
        self._buckets_base = base + 64

    @staticmethod
    def region_size(capacity: int, key_capacity: int = 64, value_capacity: int = 256) -> int:
        return 64 + capacity * _align8(24 + key_capacity + value_capacity)

    def format(self, ctx: NodeContext) -> "LockedHashMap":
        self.lock.format(ctx)
        ctx.atomic_store_many([self._bucket(idx) for idx in range(self.capacity)], _EMPTY)
        return self

    def put(self, ctx: NodeContext, key: bytes, value: bytes) -> None:
        self._check_sizes(key, value)
        with self.lock.held(ctx):
            idx = self._probe(ctx, key, for_insert=True)
            if idx is None:
                raise MapFullError("no free bucket")
            bucket = self._bucket(idx)
            ctx.atomic_store(bucket + 8, stable_hash(key))
            ctx.store(bucket + 16, struct.pack("<II", len(key), len(value)))
            ctx.store(bucket + self._BUCKET_META, key)
            ctx.store(bucket + self._BUCKET_META + self.key_capacity, value)
            ctx.flush(bucket + 16, 8 + self.key_capacity + self.value_capacity)
            ctx.fence()
            ctx.atomic_store(bucket, _USED)

    def get(self, ctx: NodeContext, key: bytes) -> Optional[bytes]:
        with self.lock.held(ctx):
            idx = self._probe(ctx, key, for_insert=False)
            if idx is None:
                return None
            bucket = self._bucket(idx)
            ctx.invalidate(bucket + 16, 8)
            _, vlen = struct.unpack("<II", ctx.load(bucket + 16, 8))
            val_off = bucket + self._BUCKET_META + self.key_capacity
            ctx.invalidate(val_off, vlen)
            return ctx.load(val_off, vlen)

    def delete(self, ctx: NodeContext, key: bytes) -> bool:
        with self.lock.held(ctx):
            idx = self._probe(ctx, key, for_insert=False)
            if idx is None:
                return False
            ctx.atomic_store(self._bucket(idx), _TOMB)
            return True

    def _probe(self, ctx: NodeContext, key: bytes, for_insert: bool) -> Optional[int]:
        h = stable_hash(key)
        first_tomb = None
        for step in range(self.capacity):
            idx = (h + step) % self.capacity
            bucket = self._bucket(idx)
            state = ctx.atomic_load(bucket)
            if state == _EMPTY:
                if for_insert:
                    return idx if first_tomb is None else first_tomb
                return None
            if state == _TOMB:
                if first_tomb is None:
                    first_tomb = idx
                continue
            if ctx.atomic_load(bucket + 8) == h and self._key_matches(ctx, bucket, key):
                return idx
        if for_insert:
            return first_tomb
        return None

    def _key_matches(self, ctx: NodeContext, bucket: int, key: bytes) -> bool:
        ctx.invalidate(bucket + 16, 8)
        klen, _ = struct.unpack("<II", ctx.load(bucket + 16, 8))
        if klen != len(key):
            return False
        ctx.invalidate(bucket + self._BUCKET_META, klen)
        return ctx.load(bucket + self._BUCKET_META, klen) == key

    def _check_sizes(self, key: bytes, value: bytes) -> None:
        if len(key) > self.key_capacity:
            raise HashMapError(f"key of {len(key)} B exceeds capacity {self.key_capacity}")
        if len(value) > self.value_capacity:
            raise HashMapError(f"value of {len(value)} B exceeds capacity {self.value_capacity}")

    def _bucket(self, idx: int) -> int:
        return self._buckets_base + idx * self.bucket_size


class ReplicatedDict:
    """dict semantics through node replication: local reads, logged writes."""

    def __init__(self, log: OperationLog) -> None:
        self.nr: NodeReplication[Dict[bytes, bytes]] = NodeReplication(
            log, factory=dict, apply_fn=self._apply
        )

    @staticmethod
    def _apply(state: Dict[bytes, bytes], op: Any) -> Any:
        verb = op[0]
        if verb == "put":
            state[op[1]] = op[2]
            return None
        if verb == "del":
            return state.pop(op[1], None) is not None
        raise HashMapError(f"unknown op {verb!r}")

    def put(self, ctx: NodeContext, key: bytes, value: bytes) -> None:
        self.nr.replica(ctx).execute(ctx, ("put", key, value))

    def get(self, ctx: NodeContext, key: bytes) -> Optional[bytes]:
        return self.nr.replica(ctx).read(ctx, lambda state: state.get(key))

    def get_local(self, ctx: NodeContext, key: bytes) -> Optional[bytes]:
        """Stale-tolerant read with zero log traffic."""
        return self.nr.replica(ctx).read_local(lambda state: state.get(key))

    def delete(self, ctx: NodeContext, key: bytes) -> bool:
        return bool(self.nr.replica(ctx).execute(ctx, ("del", key)))


class DelegatedDict:
    """dict semantics partitioned across owner nodes via delegation.

    Partition ``i`` lives in owner node ``owners[i]``'s private Python
    dict; other nodes reach it through that owner's mailbox service.
    ``call`` needs both contexts because the simulator drives the owner
    explicitly.
    """

    def __init__(
        self,
        region_base: int,
        owners: List[int],
        n_nodes: int,
        payload_capacity: int = 1024,
    ) -> None:
        self.owners = owners
        self._parts: List[Dict[bytes, bytes]] = [dict() for _ in owners]
        self.services: List[DelegationService] = []
        offset = region_base
        for part_idx, owner in enumerate(owners):
            svc = DelegationService(
                offset,
                owner_node=owner,
                n_nodes=n_nodes,
                handler=self._make_handler(part_idx),
                payload_capacity=payload_capacity,
            )
            self.services.append(svc)
            offset += DelegationService.region_size(n_nodes, payload_capacity)
        self.region_end = offset

    @staticmethod
    def region_size(n_partitions: int, n_nodes: int, payload_capacity: int = 1024) -> int:
        return n_partitions * DelegationService.region_size(n_nodes, payload_capacity)

    def format(self, ctx: NodeContext) -> "DelegatedDict":
        for svc in self.services:
            svc.format(ctx)
        return self

    def _make_handler(self, part_idx: int):
        def handler(request: bytes) -> bytes:
            op = pickle.loads(request)
            part = self._parts[part_idx]
            if op[0] == "put":
                part[op[1]] = op[2]
                return pickle.dumps(None)
            if op[0] == "get":
                return pickle.dumps(part.get(op[1]))
            if op[0] == "del":
                return pickle.dumps(part.pop(op[1], None) is not None)
            raise HashMapError(f"unknown op {op[0]!r}")

        return handler

    def partition_of(self, key: bytes) -> int:
        return stable_hash(key) % len(self.owners)

    def _invoke(self, ctx: NodeContext, owner_ctx: NodeContext, key: bytes, op: tuple) -> Any:
        part_idx = self.partition_of(key)
        svc = self.services[part_idx]
        if ctx.node_id == svc.owner_node:
            # local partition: operate directly, no mailbox traffic
            ctx.advance(svc.handler_cost_ns)
            return pickle.loads(svc.handler(pickle.dumps(op)))
        return pickle.loads(svc.call(ctx, owner_ctx, pickle.dumps(op)))

    def put(self, ctx: NodeContext, owner_ctx: NodeContext, key: bytes, value: bytes) -> None:
        self._invoke(ctx, owner_ctx, key, ("put", key, value))

    def get(self, ctx: NodeContext, owner_ctx: NodeContext, key: bytes) -> Optional[bytes]:
        return self._invoke(ctx, owner_ctx, key, ("get", key))

    def delete(self, ctx: NodeContext, owner_ctx: NodeContext, key: bytes) -> bool:
        return bool(self._invoke(ctx, owner_ctx, key, ("del", key)))

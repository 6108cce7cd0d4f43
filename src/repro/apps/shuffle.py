"""Big-data shuffle over FlacFS — the §3.4 customer scenario.

The paper motivates the memory file system with "temporary data storage
and shuffle in big data analytics".  This module implements a
MapReduce-style shuffle two ways:

* **FlacOS shuffle** — mappers write their partition spills *once* into
  FlacFS; the shared page cache makes every spill readable in place by
  any reducer on any node.  Nothing crosses a network; the shuffle is
  data-movement-free by construction.
* **Network shuffle** (the baseline every cluster runs today) — spills
  stay in the mapper node's private storage and each reducer fetches
  every remote spill over TCP, paying serialisation, copies, and wire
  time per byte.

Records are (key, value) byte pairs; partitioning is by key hash.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.fs import FlacFS
from ..net.serialization import Serializer
from ..net.tcp import TcpNetwork
from ..rack.machine import NodeContext

Record = Tuple[bytes, bytes]


def encode_records(records: Sequence[Record]) -> bytes:
    """Columnar spill encoding: count, key lengths, value lengths, then
    all keys concatenated, then all values.

    Grouping the fixed-width headers lets the decoder parse every length
    with one ``np.frombuffer`` and locate every record with one cumulative
    sum instead of a per-record ``struct.unpack`` walk; the payload is two
    ``join`` calls.  The format is private to this module (spills are
    written and read by the same shuffle), so only the round trip matters.
    """
    count = len(records)
    if count == 0:
        return struct.pack("<I", 0)
    klens = np.fromiter((len(k) for k, _ in records), dtype="<u4", count=count)
    vlens = np.fromiter((len(v) for _, v in records), dtype="<u4", count=count)
    return b"".join(
        (
            struct.pack("<I", count),
            klens.tobytes(),
            vlens.tobytes(),
            b"".join(k for k, _ in records),
            b"".join(v for _, v in records),
        )
    )


def decode_records(data: bytes) -> List[Record]:
    (count,) = struct.unpack_from("<I", data, 0)
    if count == 0:
        return []
    klens = np.frombuffer(data, dtype="<u4", count=count, offset=4)
    vlens = np.frombuffer(data, dtype="<u4", count=count, offset=4 + 4 * count)
    kstarts = np.empty(count + 1, dtype=np.int64)
    kstarts[0] = 4 + 8 * count
    np.cumsum(klens, out=kstarts[1:])
    kstarts[1:] += kstarts[0]
    vstarts = np.empty(count + 1, dtype=np.int64)
    vstarts[0] = kstarts[count]
    np.cumsum(vlens, out=vstarts[1:])
    vstarts[1:] += vstarts[0]
    ks = kstarts.tolist()
    vs = vstarts.tolist()
    return [
        (data[ks[i] : ks[i + 1]], data[vs[i] : vs[i + 1]])
        for i in range(count)
    ]


def stable_hash(key: bytes) -> int:
    """Deterministic 64-bit key hash (Python's hash() is salted per run)."""
    return struct.unpack("<Q", hashlib.blake2b(key, digest_size=8).digest())[0]


def partition_of(key: bytes, n_partitions: int) -> int:
    return stable_hash(key) % n_partitions


@dataclass
class ShuffleReport:
    strategy: str
    n_mappers: int
    n_reducers: int
    bytes_spilled: int
    bytes_over_wire: int
    map_makespan_ns: float
    reduce_makespan_ns: float

    @property
    def total_ns(self) -> float:
        return self.map_makespan_ns + self.reduce_makespan_ns


class FlacShuffle:
    """Shuffle through the rack-shared file system."""

    def __init__(self, fs: FlacFS, job_id: str = "job0") -> None:
        self.fs = fs
        self.job_id = job_id

    def _spill_path(self, mapper: int, partition: int) -> str:
        return f"/shuffle/{self.job_id}/map{mapper}/part{partition}"

    def run_map(
        self,
        ctx: NodeContext,
        mapper: int,
        records: Sequence[Record],
        n_partitions: int,
    ) -> int:
        """Partition and spill one mapper's output into FlacFS."""
        base = f"/shuffle/{self.job_id}"
        for path in ("/shuffle", base, f"{base}/map{mapper}"):
            if not self.fs.exists(ctx, path):
                self.fs.mkdir(ctx, path)
        buckets: Dict[int, List[Record]] = {}
        for key, value in records:
            buckets.setdefault(partition_of(key, n_partitions), []).append((key, value))
        spilled = 0
        for partition, bucket in buckets.items():
            blob = encode_records(bucket)
            fd = self.fs.open(ctx, self._spill_path(mapper, partition), create=True)
            self.fs.write(ctx, fd, 0, blob)
            self.fs.close(ctx, fd)
            spilled += len(blob)
        return spilled

    def run_reduce(
        self, ctx: NodeContext, partition: int, n_mappers: int
    ) -> List[Record]:
        """Gather one partition from every mapper's spill — in place."""
        records: List[Record] = []
        for mapper in range(n_mappers):
            path = self._spill_path(mapper, partition)
            if not self.fs.exists(ctx, path):
                continue  # mapper produced nothing for this partition
            fd = self.fs.open(ctx, path)
            size = self.fs.stat(ctx, path).size
            records.extend(decode_records(self.fs.read(ctx, fd, 0, size)))
            self.fs.close(ctx, fd)
        records.sort(key=lambda kv: kv[0])
        return records


class NetworkShuffle:
    """The baseline: spills private to mappers, fetched over TCP."""

    def __init__(self) -> None:
        self.network = TcpNetwork()
        self.serializer = Serializer()
        #: (mapper, partition) -> (home node, blob) — mapper-private spills
        self._spills: Dict[Tuple[int, int], Tuple[int, bytes]] = {}
        self.bytes_over_wire = 0
        self._conn_cache: Dict[Tuple[int, int], object] = {}

    def run_map(
        self,
        ctx: NodeContext,
        mapper: int,
        records: Sequence[Record],
        n_partitions: int,
    ) -> int:
        buckets: Dict[int, List[Record]] = {}
        for key, value in records:
            buckets.setdefault(partition_of(key, n_partitions), []).append((key, value))
        spilled = 0
        for partition, bucket in buckets.items():
            blob = encode_records(bucket)
            # local buffered file write: create + syscall + page-cache copy
            ctx.advance(8_000 + len(blob) * 0.25)
            self._spills[(mapper, partition)] = (ctx.node_id, blob)
            spilled += len(blob)
        return spilled

    def run_reduce(
        self,
        ctx: NodeContext,
        partition: int,
        n_mappers: int,
        mapper_ctxs: Dict[int, NodeContext],
    ) -> List[Record]:
        """Fetch every remote spill over TCP, local ones from disk."""
        records: List[Record] = []
        for mapper in range(n_mappers):
            spill = self._spills.get((mapper, partition))
            if spill is None:
                continue
            home_node, blob = spill
            if home_node == ctx.node_id:
                ctx.advance(2_000 + len(blob) * 0.25)  # local buffered read
                records.extend(decode_records(blob))
                continue
            server_ctx = mapper_ctxs[home_node]
            wire_blob = self.serializer.dumps(server_ctx, decode_records(blob))
            conn = self._connection(ctx, server_ctx, home_node)
            conn.send(server_ctx, wire_blob)
            received = conn.recv(ctx)
            records.extend(self.serializer.loads(ctx, received))
            self.bytes_over_wire += len(wire_blob)
        records.sort(key=lambda kv: kv[0])
        return records

    def _connection(self, ctx: NodeContext, server_ctx: NodeContext, home_node: int):
        key = (min(ctx.node_id, home_node), max(ctx.node_id, home_node))
        conn = self._conn_cache.get(key)
        if conn is None:
            name = f"shuffle:{key}"
            self.network.listen(server_ctx, name)
            conn = self.network.connect(ctx, name)
            self._conn_cache[key] = conn
        return conn


def run_shuffle_job(
    strategy: str,
    mapper_ctxs: Dict[int, NodeContext],
    reducer_ctxs: Dict[int, NodeContext],
    records_per_mapper: Dict[int, List[Record]],
    n_partitions: int,
    fs: Optional[FlacFS] = None,
) -> Tuple[Dict[int, List[Record]], ShuffleReport]:
    """Drive a whole shuffle; returns (partition -> records, report)."""
    n_mappers = len(records_per_mapper)
    if strategy == "flacos":
        if fs is None:
            raise ValueError("flacos shuffle needs a FlacFS")
        engine: object = FlacShuffle(fs)
    elif strategy == "network":
        engine = NetworkShuffle()
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    map_start = max(c.now() for c in mapper_ctxs.values())
    spilled = 0
    for mapper, records in records_per_mapper.items():
        ctx = mapper_ctxs[mapper % len(mapper_ctxs)]
        spilled += engine.run_map(ctx, mapper, records, n_partitions)
    map_end = max(c.now() for c in mapper_ctxs.values())

    reduce_start = max(c.now() for c in reducer_ctxs.values())
    output: Dict[int, List[Record]] = {}
    for partition in range(n_partitions):
        ctx = reducer_ctxs[partition % len(reducer_ctxs)]
        ctx.node.clock.sync_to(map_end)  # reduce phase starts after map
        if strategy == "flacos":
            output[partition] = engine.run_reduce(ctx, partition, n_mappers)
        else:
            output[partition] = engine.run_reduce(
                ctx, partition, n_mappers, mapper_ctxs
            )
    reduce_end = max(c.now() for c in reducer_ctxs.values())

    report = ShuffleReport(
        strategy=strategy,
        n_mappers=n_mappers,
        n_reducers=len(reducer_ctxs),
        bytes_spilled=spilled,
        bytes_over_wire=getattr(engine, "bytes_over_wire", 0),
        map_makespan_ns=map_end - map_start,
        reduce_makespan_ns=reduce_end - max(map_end, reduce_start),
    )
    return output, report

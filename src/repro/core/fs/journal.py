"""FlacFS journaling, integrated with synchronisation (§3.4, [36]).

The paper's point: FlacFS does not need a separate journal for
metadata, because the replication op log *is* a redo log.  Journaling
therefore reduces to checkpointing a metadata replica together with its
log watermark; a recovery would restore the snapshot and replay the
committed suffix.  This module takes the checkpoint and mirrors its
watermark into a superblock-style word in global memory.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

from ...rack.machine import NodeContext
from ...telemetry import TELEMETRY as _TEL, span as _span
from .metadata import MetadataStore


@dataclass
class JournalRecord:
    """What a recovery needs: a state snapshot plus its log position."""

    watermark: int
    state_blob: bytes
    committed_at_ns: float


class MetadataJournal:
    """Checkpoint wrapper around a MetadataStore.

    The commit record's watermark is mirrored into a global-memory word
    (the blob itself stays host-side, standing in for a checkpoint
    region on persistent global memory).
    """

    def __init__(self, store: MetadataStore, watermark_addr: int) -> None:
        self.store = store
        self.watermark_addr = watermark_addr

    def format(self, ctx: NodeContext) -> "MetadataJournal":
        ctx.atomic_store(self.watermark_addr, 0)
        return self

    def checkpoint(self, ctx: NodeContext) -> JournalRecord:
        """Snapshot this node's replica at its current replay position."""
        with _span("fs.journal.commit", ctx=ctx):
            replica = self.store.nr.replica(ctx)
            replica.read(ctx, lambda ns: None)  # fold in everything committed
            blob = pickle.dumps(replica.state, protocol=pickle.HIGHEST_PROTOCOL)
            record = JournalRecord(
                watermark=replica.applied, state_blob=blob, committed_at_ns=ctx.now()
            )
            # checkpoint write cost ~ blob size at global-memory bandwidth
            ctx.advance(len(blob) / 10.0)
            ctx.atomic_store(self.watermark_addr, record.watermark)
        if _TEL.enabled:
            reg = _TEL.registry
            reg.inc(ctx.node_id, "core.fs", "journal.commit")
            reg.observe(ctx.node_id, "core.fs", "journal.blob_bytes", len(blob))
        return record

"""``repro.telemetry.atlas`` — rack-wide resource attribution.

The telemetry stack through PR 9 can say *that* the rack is slow (SLO
burns, incident scores); this layer says *which tenant* is consuming
*which link* and *which global pages* are hot — the per-fabric-port
signals DRackSim exposes and the PCC-index guidelines exploit for
placement, and the prerequisite for locality-aware page placement and
multi-rack federation (ROADMAP).

Four pieces:

* **per-link accounting** — lives in the fabric itself
  (:class:`~repro.rack.interconnect.LinkTable`); the traffic engine
  charges every batch along its actual routed path via
  :meth:`~repro.rack.interconnect.Interconnect.charge`, and
  :meth:`~repro.rack.interconnect.Interconnect.link_rows` turns it into
  one row per link.
* **hot-page sketch** — :class:`.sketch.SpaceSaving` top-k over 4 KiB
  global pages, fed from the machine's single-op and bulk data paths behind
  one ``_TEL.atlas is not None`` check (the ``TelemetryState.add``
  convention: bulk paths offer one aggregated call per batch).
* **blame / headroom** — :mod:`.attribution`: views over the snapshot —
  saturated links, the per-tenant contention ledger, node ports.
* **surfaces** — :meth:`Atlas.snapshot`, exported as the ``atlas``
  section of a telemetry run (:meth:`TelemetryState.export_json`);
  dashboard panels (:mod:`.render`), the atlas views of
  ``python -m repro.telemetry``, and flight-recorder tails.

Determinism contract: the atlas never advances a simulated clock, never
touches the metrics registry (so registry digests are identical with
the atlas on or off), and all its state is pure counters/dicts updated
in deterministic order — same seed, byte-identical snapshot.
"""

from __future__ import annotations

import numbers
import pathlib
from typing import Dict, Optional, Union

import numpy as np

from .. import TELEMETRY, load_run
from ..schema import ATLAS_SCHEMA
from .attribution import node_ports, saturated_links, tenant_ledger
from .sketch import SpaceSaving, aggregate_addrs

_PAGE_SHIFT = 12  # 4 KiB pages — the placement granule


class Atlas:
    """The attribution state: page sketch + queue-delay ledger + fabric ref.

    Per-link accounting lives on the fabric (it must survive atlas
    on/off toggles and is charged unconditionally by the traffic
    engine); the atlas holds what only exists when attribution is
    *enabled* — the hot-page sketch and the per-tenant queueing-delay
    ledger — plus the fabric handle that lets :meth:`snapshot` join
    the two into one report.

    Ingestion is deferred: the data-plane hooks (:meth:`touch`,
    :meth:`touch_many`) only append to a pending buffer — an O(1)
    list append plus, for bulk batches, one defensive array copy — and
    the buffered stream is folded into the sketch lazily when a query
    (:attr:`pages`, :meth:`hot_pages`, :meth:`snapshot`) needs it, or
    when the buffer crosses ``_DRAIN_ELEMS``.  Folding whole chunks at
    once amortises the per-call numpy fixed costs across hundreds of
    batches, which is what keeps the attribution wall-clock overhead on
    the simulated data plane within budget.  Drains happen at deterministic points
    (same seed → same buffer contents → same fold), so snapshots stay
    byte-identical across same-seed runs.
    """

    __slots__ = (
        "_pages", "queue_delay_ns", "machine", "fabric",
        "_global_base", "_pending", "_pending_elems",
    )

    #: auto-drain threshold (buffered addresses) — bounds buffer memory
    _DRAIN_ELEMS = 1 << 18
    #: counters kept by the hot-page sketch
    _PAGE_K = 64

    def __init__(self, machine=None) -> None:
        from ...rack.params import GLOBAL_BASE

        self._pages = SpaceSaving(self._PAGE_K)
        self._pending: list = []
        self._pending_elems = 0
        #: per-tenant queueing delay suffered (ns), fed by the engine
        self.queue_delay_ns: Dict[str, float] = {}
        self.machine = machine
        self.fabric = machine.fabric if machine is not None else None
        self._global_base = GLOBAL_BASE

    # -- ingestion (the machine hot-path hooks) --------------------------------

    def touch(self, addr: int, n_bytes: int) -> None:
        """One data-plane access; local addresses never cross the fabric
        and are skipped.  O(1): appends to the pending buffer."""
        if addr < self._global_base:
            return
        self._pending.append((addr, float(n_bytes)))
        self._pending_elems += 1
        if self._pending_elems > self._DRAIN_ELEMS:
            self._drain()

    def touch_many(self, addrs, sizes) -> None:
        """One bulk batch.  Copies the batch (callers reuse their
        buffers) into the pending stream; aggregation is deferred to
        the next drain so the sketch pays amortised O(distinct keys),
        not per-batch numpy fixed costs."""
        arr = np.array(addrs, dtype=np.int64)  # defensive copy
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.size == 0:
            return
        if isinstance(sizes, numbers.Number) or getattr(sizes, "ndim", 1) == 0:
            sizes = float(sizes)
        else:
            sizes = np.array(sizes, dtype=np.float64)
        self._pending.append((arr, sizes))
        self._pending_elems += arr.size
        if self._pending_elems > self._DRAIN_ELEMS:
            self._drain()

    def _drain(self) -> None:
        """Fold the buffered access stream into the page sketch.

        The whole buffer is aggregated as one multiset of byte weights
        per distinct page before a single ascending-key offer pass —
        deterministic, and two orders of magnitude cheaper than
        per-batch folding.  The weights are whole byte counts, so the
        per-page sums are exact in any order."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        self._pending_elems = 0
        chunks, weight_chunks = [], []
        single_addrs: list = []
        single_weights: list = []
        for addrs, sizes in pending:
            if isinstance(addrs, (int, np.integer)):  # single-op entry
                single_addrs.append(addrs)
                single_weights.append(sizes)
                continue
            chunks.append(addrs)
            if isinstance(sizes, float):
                chunk = np.empty(addrs.size, dtype=np.float64)
                chunk.fill(sizes)  # ``np.full``, without its Python frames
                weight_chunks.append(chunk)
            else:
                weight_chunks.append(sizes)
        if single_addrs:
            chunks.append(np.asarray(single_addrs, dtype=np.int64))
            weight_chunks.append(np.asarray(single_weights, dtype=np.float64))
        arr = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        weights = (weight_chunks[0] if len(weight_chunks) == 1
                   else np.concatenate(weight_chunks))
        if int(np.minimum.reduce(arr)) < self._global_base:  # any local addrs to drop?
            mask = arr >= self._global_base
            arr, weights = arr[mask], weights[mask]
            if not len(arr):
                return
        keys, w = aggregate_addrs(arr, _PAGE_SHIFT, weights)
        self._pages.offer_many(keys, w, presorted=True)

    @property
    def pages(self) -> SpaceSaving:
        """The hot-page sketch, with any pending accesses folded in."""
        self._drain()
        return self._pages

    def note_queue_delay(self, tenant: str, delta_ns: float) -> None:
        """Bank queueing delay a tenant's batch suffered (victim ledger)."""
        self.queue_delay_ns[tenant] = self.queue_delay_ns.get(tenant, 0.0) + delta_ns

    def clear(self) -> None:
        self._pending.clear()
        self._pending_elems = 0
        self._pages.clear()
        self.queue_delay_ns.clear()

    # -- reporting -------------------------------------------------------------

    def hot_pages(self, n: Optional[int] = None) -> list:
        """Top hot pages as JSON-ready rows, heaviest first."""
        return [
            {
                "page": key << _PAGE_SHIFT,
                "addr": f"{key << _PAGE_SHIFT:#x}",
                "bytes": weight,
                "error": error,
            }
            for key, weight, error in self.pages.top(n)
        ]

    def snapshot(self, now_ns: Optional[float] = None) -> dict:
        """The whole attribution picture as one JSON-ready dict: the page
        sketch, the queue-delay ledger, the fabric's link rows
        (:meth:`~repro.rack.interconnect.Interconnect.link_rows`) and each
        node's port — its first routed link, ``None`` when severed."""
        if now_ns is None and self.machine is not None:
            now_ns = self.machine.max_time()
        fabric = self.fabric
        return {
            "schema": ATLAS_SCHEMA,
            "at_ns": now_ns,
            "sketch": {
                "page_k": self.pages.k,
                "page_coverage": round(self.pages.guaranteed_fraction(), 6),
                "total_bytes": self.pages.total,
            },
            "pages": self.hot_pages(),
            "queue_delay_ns": {
                t: round(v, 3) for t, v in sorted(self.queue_delay_ns.items())
            },
            "links": [] if fabric is None else fabric.link_rows(now_ns),
            "nodes": [] if fabric is None else [
                {"node": node,
                 "port": fabric.path_links(node)[0] if fabric.reachable(node) else None}
                for node in sorted(self.machine.nodes)
            ],
        }


# -- switchboard wiring --------------------------------------------------------


def enable_atlas(machine=None) -> Atlas:
    """Install an :class:`Atlas` on the telemetry switchboard.

    The machine's data-plane hooks start feeding the sketches on the
    next access; per-link fabric accounting is always on (it rides the
    traffic engine's charge path), the atlas just gains a handle to
    report it.  Returns the installed atlas.
    """
    atlas = Atlas(machine=machine)
    TELEMETRY.atlas = atlas
    return atlas


def load_atlas(path: Union[str, pathlib.Path]) -> dict:
    """The atlas section of a telemetry run export (:func:`load_run` checks it)."""
    atlas = load_run(path).get("atlas")
    if atlas is None:
        raise ValueError("no atlas section (the run was exported without one)")
    return atlas


__all__ = [
    "ATLAS_SCHEMA",
    "Atlas",
    "SpaceSaving",
    "aggregate_addrs",
    "enable_atlas",
    "load_atlas",
    "node_ports",
    "saturated_links",
    "tenant_ledger",
]

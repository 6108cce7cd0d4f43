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
  :meth:`~repro.rack.interconnect.Interconnect.charge`.
* **hot-page / hot-line sketches** — :class:`.sketch.SpaceSaving`
  top-k, fed from the machine's single-op and bulk data paths behind
  one ``_TEL.atlas is not None`` check (the ``TelemetryState.add``
  convention: bulk paths offer one aggregated call per batch).
* **blame / headroom** — :mod:`.attribution`: per-(tenant, link)
  saturated-byte shares, queueing-delay blame, time-to-saturation.
* **surfaces** — :meth:`Atlas.snapshot` (JSON), dashboard panels
  (:mod:`.render`), ``python -m repro.telemetry.atlas`` CLI, flight-
  recorder tails, and a saturation SLO for the health engine.

Determinism contract: the atlas never advances a simulated clock, never
touches the metrics registry (so registry digests are identical with
the atlas on or off), and all its state is pure counters/dicts updated
in deterministic order — same seed, byte-identical snapshot.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Optional, Union

import numpy as np

from .. import TELEMETRY
from ..health.slo import Objective
from .attribution import (
    link_blame,
    link_headroom,
    node_headroom,
    tenant_blame,
)
from .sketch import SpaceSaving, aggregate_addrs

ATLAS_SCHEMA = "repro.telemetry.atlas/1"

_PAGE_SHIFT = 12  # 4 KiB pages — the placement granule
_LINE_SHIFT = 6  # 64 B lines


class Atlas:
    """The attribution state: sketches + queue-delay ledger + fabric ref.

    Per-link accounting lives on the fabric (it must survive atlas
    on/off toggles and is charged unconditionally by the traffic
    engine); the atlas holds what only exists when attribution is
    *enabled* — the address sketches and the per-tenant queueing-delay
    ledger — plus the fabric handle that lets :meth:`snapshot` join
    the two into one report.

    Ingestion is deferred: the data-plane hooks (:meth:`touch`,
    :meth:`touch_many`) only append to a pending buffer — an O(1)
    list append plus, for bulk batches, one defensive array copy — and
    the buffered stream is folded into the sketches lazily when a
    query (:attr:`pages`, :attr:`lines`, :meth:`hot_pages`,
    :meth:`snapshot`) needs them, or when the buffer crosses
    ``_DRAIN_ELEMS``.  Folding whole chunks at once amortises the
    per-call numpy fixed costs across hundreds of batches, which is
    what keeps the attribution wall-clock overhead on the simulated
    data plane within budget.  Drains happen at deterministic points
    (same seed → same buffer contents → same fold), so snapshots stay
    byte-identical across same-seed runs.

    A drain folds *pages* at once — the flight recorder reads them at
    every dump — but only parks each chunk's per-line aggregate; the
    line sketch is folded when something reads :attr:`lines`
    (:meth:`hot_lines`, :meth:`snapshot`), from the same aggregates in
    the same order, so it is the sketch an eager fold would have built.
    A run that never reads it (every benchmark workload) never pays its
    evictions.  Parked entries are bounded by ``_DRAIN_ELEMS`` too.
    """

    __slots__ = (
        "_pages", "_lines", "queue_delay_ns", "machine", "fabric",
        "_global_base", "_page_shift", "_line_shift",
        "_pending", "_pending_elems", "_parked_lines", "_parked_elems",
    )

    #: auto-drain threshold (buffered addresses, and parked distinct
    #: lines) — bounds buffer memory
    _DRAIN_ELEMS = 1 << 18
    #: counters kept by the hot-page and hot-line sketches
    _PAGE_K = 64
    _LINE_K = 64

    def __init__(self, machine=None) -> None:
        from ...rack.params import GLOBAL_BASE

        self._pages = SpaceSaving(self._PAGE_K)
        self._lines = SpaceSaving(self._LINE_K)
        self._pending: list = []
        self._pending_elems = 0
        #: drained ``(line_keys, line_weights)`` aggregates awaiting a reader
        self._parked_lines: list = []
        self._parked_elems = 0
        #: per-tenant queueing delay suffered (ns), fed by the engine
        self.queue_delay_ns: Dict[str, float] = {}
        self.machine = machine
        self.fabric = machine.fabric if machine is not None else None
        self._global_base = GLOBAL_BASE
        self._page_shift = _PAGE_SHIFT
        self._line_shift = _LINE_SHIFT

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
        if not (np.isscalar(sizes) or getattr(sizes, "ndim", 1) == 0):
            sizes = np.array(sizes, dtype=np.float64)
        else:
            sizes = float(sizes)
        self._pending.append((arr, sizes))
        self._pending_elems += arr.size
        if self._pending_elems > self._DRAIN_ELEMS:
            self._drain()

    def _drain(self) -> None:
        """Fold the buffered access stream into the page sketch and park
        its line aggregate for :meth:`_fold_lines`.

        The whole buffer is aggregated as one multiset (per distinct
        line, then pages coarsened from the line groups) before a
        single ascending-key offer pass per sketch — deterministic, and
        two orders of magnitude cheaper than per-batch folding."""
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
                weight_chunks.append(
                    np.full(addrs.size, sizes, dtype=np.float64))
            else:
                weight_chunks.append(sizes)
        if single_addrs:
            chunks.append(np.asarray(single_addrs, dtype=np.int64))
            weight_chunks.append(np.asarray(single_weights, dtype=np.float64))
        arr = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        weights = (weight_chunks[0] if len(weight_chunks) == 1
                   else np.concatenate(weight_chunks))
        if int(arr.min()) < self._global_base:  # any local addrs to drop?
            mask = arr >= self._global_base
            arr, weights = arr[mask], weights[mask]
            if not len(arr):
                return
        if self._line_shift <= self._page_shift:
            # pages coarsen lines: scan the stream once for the line
            # aggregation, then collapse the (far smaller, already
            # sorted) distinct-line set into page groups with reduceat
            # instead of re-scanning every address
            line_keys, line_weights = aggregate_addrs(
                arr, self._line_shift, weights)
            self._park_lines(line_keys, line_weights)
            page_buckets = line_keys >> (self._page_shift - self._line_shift)
            starts = np.flatnonzero(np.diff(page_buckets)) + 1
            if len(starts):
                starts = np.concatenate(([0], starts))
                page_keys = page_buckets[starts]
                page_weights = np.add.reduceat(line_weights, starts)
            else:
                page_keys = page_buckets[:1]
                page_weights = np.asarray([line_weights.sum()])
            self._pages.offer_many(page_keys, page_weights, presorted=True)
        else:
            keys, w = aggregate_addrs(arr, self._page_shift, weights)
            self._pages.offer_many(keys, w, presorted=True)
            self._park_lines(*aggregate_addrs(arr, self._line_shift, weights))

    def _park_lines(self, keys: np.ndarray, weights: np.ndarray) -> None:
        self._parked_lines.append((keys, weights))
        self._parked_elems += len(keys)
        if self._parked_elems > self._DRAIN_ELEMS:
            self._fold_lines()

    def _fold_lines(self) -> None:
        """Offer the parked line aggregates, oldest drain first."""
        parked, self._parked_lines = self._parked_lines, []
        self._parked_elems = 0
        for keys, weights in parked:
            self._lines.offer_many(keys, weights, presorted=True)

    @property
    def pages(self) -> SpaceSaving:
        """The hot-page sketch, with any pending accesses folded in."""
        self._drain()
        return self._pages

    @property
    def lines(self) -> SpaceSaving:
        """The hot-line sketch, with any pending accesses folded in."""
        self._drain()
        self._fold_lines()
        return self._lines

    def note_queue_delay(self, tenant: str, delta_ns: float) -> None:
        """Bank queueing delay a tenant's batch suffered (victim ledger)."""
        self.queue_delay_ns[tenant] = self.queue_delay_ns.get(tenant, 0.0) + delta_ns

    def clear(self) -> None:
        self._pending.clear()
        self._pending_elems = 0
        self._parked_lines.clear()
        self._parked_elems = 0
        self._pages.clear()
        self._lines.clear()
        self.queue_delay_ns.clear()

    # -- reporting -------------------------------------------------------------

    def hot_pages(self, n: Optional[int] = None) -> list:
        """Top hot pages as JSON-ready rows, heaviest first."""
        return [
            {
                "page": key << self._page_shift,
                "addr": f"{key << self._page_shift:#x}",
                "bytes": weight,
                "error": error,
            }
            for key, weight, error in self.pages.top(n)
        ]

    def hot_lines(self, n: Optional[int] = None) -> list:
        return [
            {
                "line": key << self._line_shift,
                "addr": f"{key << self._line_shift:#x}",
                "bytes": weight,
                "error": error,
            }
            for key, weight, error in self.lines.top(n)
        ]

    def snapshot(self, now_ns: Optional[float] = None) -> dict:
        """The whole attribution picture as one JSON-ready dict."""
        if now_ns is None and self.machine is not None:
            now_ns = self.machine.max_time()
        fabric = self.fabric
        snap = {
            "schema": ATLAS_SCHEMA,
            "at_ns": now_ns,
            "sketch": {
                "page_k": self.pages.k,
                "line_k": self.lines.k,
                "page_coverage": round(self.pages.guaranteed_fraction(), 6),
                "line_coverage": round(self.lines.guaranteed_fraction(), 6),
                "total_bytes": self.pages.total,
            },
            "pages": self.hot_pages(),
            "lines": self.hot_lines(),
            "queue_delay_ns": {
                t: round(v, 3) for t, v in sorted(self.queue_delay_ns.items())
            },
        }
        if fabric is not None:
            links = fabric.links.snapshot(now_ns)
            # label per-link VNI rows with tenant names for offline readers
            for row in links["links"]:
                for vrow in row["vnis"]:
                    vrow["tenant"] = fabric.vnis.label_of(vrow["vni"])
            snap["links"] = links
            snap["vnis"] = fabric.vnis.snapshot(now_ns)
            snap["blame"] = {
                "links": link_blame(fabric),
                "tenants": tenant_blame(fabric, self.queue_delay_ns),
            }
            snap["headroom"] = {
                "links": link_headroom(fabric, now_ns),
                "nodes": node_headroom(fabric, now_ns),
            }
        return snap

    def export_json(
        self, path: Union[str, pathlib.Path], now_ns: Optional[float] = None
    ) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text(
            json.dumps(self.snapshot(now_ns), indent=2, sort_keys=True) + "\n"
        )
        return path


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


def saturation_objective(
    budget_per_window: float = 0.5,
    fast_burn: float = 2.0,
    slow_burn: float = 1.0,
) -> Objective:
    """The headroom SLO: saturated link-windows are budget burn.

    The fabric banks one ``fabric/link.saturated_window`` count each
    time any link closes a window at/over capacity (see
    :meth:`~repro.rack.interconnect.LinkTable._roll`), so this fires
    while headroom is exhausted — feed it to the health engine
    alongside :func:`~repro.telemetry.health.slo.default_objectives`.
    """
    return Objective(
        name="fabric.saturation",
        kind="rate",
        subsystem="fabric",
        metric="link.saturated_window",
        budget_per_window=budget_per_window,
        per_node=False,
        fast_burn=fast_burn,
        slow_burn=slow_burn,
    )


def load_atlas(path: Union[str, pathlib.Path]) -> dict:
    """Read an atlas snapshot *or* a telemetry run export carrying one."""
    data = json.loads(pathlib.Path(path).read_text())
    if data.get("schema") == ATLAS_SCHEMA:
        return data
    atlas = data.get("atlas")
    if isinstance(atlas, dict) and atlas.get("schema") == ATLAS_SCHEMA:
        return atlas
    raise ValueError(f"no atlas section (schema={data.get('schema')!r})")


__all__ = [
    "ATLAS_SCHEMA",
    "Atlas",
    "SpaceSaving",
    "aggregate_addrs",
    "enable_atlas",
    "link_blame",
    "link_headroom",
    "load_atlas",
    "node_headroom",
    "saturation_objective",
    "tenant_blame",
]

"""Deterministic Space-Saving top-k sketches for hot-page tracking.

Metwally et al.'s Space-Saving algorithm tracks the heaviest keys of a
stream in O(k) memory: a hit increments its counter; a novel key either
takes a free slot or *replaces* the current minimum, inheriting its
count as the new entry's error bound.  The invariant the reports lean
on: ``count - error`` is a *guaranteed lower bound* on a tracked key's
true weight, so ``sum(count - error) / total`` is a proven coverage
fraction — "at least this share of all traffic hit the keys we kept".

Determinism contract (the atlas's whole value rides on it): eviction
picks the minimum by ``(count, key)`` — ties break on the key itself,
never on dict iteration order or randomness — and batch offers apply in
ascending key order.  Two same-seed runs produce byte-identical
sketches; the sketch itself needs no seed.

The minimum comes off a lazily repaired min-heap of ``(count, key)``
(amortised O(log k) per novel key, not a scan of all k counters); it is
the same ``(count, key)`` minimum a scan would find, which relies on
weights being non-negative — a counter never shrinks.
"""

from __future__ import annotations

from heapq import heappush, heapreplace
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np


class SpaceSaving:
    """Top-k heavy-hitter sketch over weighted integer keys."""

    __slots__ = ("k", "counts", "errors", "total", "_heap")

    def __init__(self, k: int = 64) -> None:
        if k <= 0:
            raise ValueError(f"sketch size must be positive, got {k}")
        self.k = int(k)
        self.counts: Dict[int, float] = {}
        self.errors: Dict[int, float] = {}
        #: total weight offered (tracked or not) — the coverage denominator
        self.total = 0.0
        #: min-heap of ``(count, key)`` snapshots, one per tracked key,
        #: repaired lazily: hits only bump ``counts``, so an entry may
        #: hold an older (never larger) count until eviction reads it
        self._heap: List[Tuple[float, int]] = []

    def clear(self) -> None:
        self.counts.clear()
        self.errors.clear()
        self._heap.clear()
        self.total = 0.0

    def offer(self, key: int, weight: float = 1.0) -> None:
        """Offer one key occurrence of ``weight`` to the sketch."""
        self.total += weight
        counts = self.counts
        if key in counts:
            counts[key] += weight
            return
        heap = self._heap
        if len(counts) < self.k:
            counts[key] = weight
            self.errors[key] = 0.0
            heappush(heap, (weight, key))
            return
        # evict the minimum — deterministic tie-break on the key itself.
        # Counts only grow, so every heap entry lower-bounds its key's
        # live ``(count, key)``: refresh the top until it is current, and
        # a current top is the true minimum.
        while True:
            seen, victim = heap[0]
            floor = counts[victim]
            if floor == seen:
                break
            heapreplace(heap, (floor, victim))
        del counts[victim]
        del self.errors[victim]
        counts[key] = floor + weight
        self.errors[key] = floor
        heapreplace(heap, (floor + weight, key))

    def offer_many(self, keys: np.ndarray, weights: np.ndarray,
                   presorted: bool = False) -> None:
        """Offer pre-aggregated (key, weight) pairs, ascending by key.

        Callers aggregate a batch with ``np.unique`` first (one Python
        call per *distinct* key per batch, not per access), then this
        applies them in sorted-key order so batched and sequential
        ingestion of the same multiset land byte-identical sketches
        whenever no eviction interleaves — and stay deterministic even
        when one does.  ``presorted=True`` skips the sort for callers
        (like :func:`aggregate_addrs`) whose keys are already ascending.

        The steady-state hot path — every key already tracked — runs as
        one inlined dict loop; only novel keys fall back to
        :meth:`offer`'s insert/evict logic.
        """
        if not presorted:
            order = np.argsort(keys, kind="stable")
            keys, weights = keys[order], weights[order]
        counts = self.counts
        misses = None
        for key, w in zip(keys.tolist(), weights.tolist()):
            if key in counts:
                counts[key] += w
                self.total += w
            elif misses is None:
                misses = [(key, w)]
            else:
                misses.append((key, w))
        if misses is not None:
            for key, w in misses:
                self.offer(int(key), float(w))

    # -- queries ---------------------------------------------------------------

    def top(self, n: Optional[int] = None) -> List[Tuple[int, float, float]]:
        """``(key, count, error)`` rows, heaviest first, key-tie-broken."""
        rows = sorted(
            ((k, c, self.errors.get(k, 0.0)) for k, c in self.counts.items()),
            key=lambda row: (-row[1], row[0]),
        )
        return rows if n is None else rows[:n]

    def guaranteed_fraction(self) -> float:
        """Proven share of total offered weight held by tracked keys.

        ``count - error`` lower-bounds each tracked key's true weight,
        so this is a floor on "how much of the traffic the top-k saw".
        """
        if self.total <= 0:
            return 0.0
        floor = sum(c - self.errors.get(k, 0.0) for k, c in self.counts.items())
        return min(1.0, floor / self.total)


def aggregate_addrs(
    addrs: Iterable[int], shift: int, sizes
) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse raw addresses to per-bucket byte weights.

    ``addrs >> shift`` buckets (pages or lines), ``sizes`` either a
    scalar (uniform ops) or a per-address array.  Returns ascending
    bucket keys with their total byte weights — the ``offer_many``
    input shape.
    """
    arr = np.asarray(addrs, dtype=np.int64)
    buckets = arr >> shift
    scalar = np.isscalar(sizes) or getattr(sizes, "ndim", 1) == 0
    if buckets.size == 0:
        return buckets, np.zeros(0, dtype=np.float64)
    lo = int(buckets.min())
    span = int(buckets.max()) - lo + 1
    if span <= 4 * buckets.size + 1024:
        # dense bucket range (the common hot-working-set case): histogram
        # beats sort-based np.unique by a wide margin
        if scalar:
            hist = np.bincount(buckets - lo, minlength=span)
        else:
            hist = np.bincount(buckets - lo,
                               weights=np.asarray(sizes, dtype=np.float64),
                               minlength=span)
        nz = np.nonzero(hist)[0]
        sums = hist[nz].astype(np.float64)
        if scalar:
            sums *= float(sizes)
        return nz + lo, sums
    if scalar:
        keys, counts = np.unique(buckets, return_counts=True)
        return keys, counts.astype(np.float64) * float(sizes)
    weights = np.asarray(sizes, dtype=np.float64)
    keys, inverse = np.unique(buckets, return_inverse=True)
    sums = np.bincount(inverse, weights=weights, minlength=len(keys))
    return keys, sums

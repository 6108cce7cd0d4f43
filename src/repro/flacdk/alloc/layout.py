"""Hotness-aware object layout and allocation packing (§3.2, [26, 40]).

Given a set of objects with access-frequency scores, the packer decides
an ordering/placement that concentrates hot objects onto as few cache
lines as possible — on a rack this matters doubly, because a line of
global memory costs hundreds of nanoseconds to pull and every cold byte
sharing it with a hot byte is amplified across nodes.

This module is pure policy: it produces placement plans; the relocation
machinery (:mod:`.relocation`) applies them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class ObjectInfo:
    """One allocatable object as seen by the packer."""

    obj_id: int
    size: int
    hotness: float

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("object size must be positive")
        if self.hotness < 0:
            raise ValueError("hotness cannot be negative")


@dataclass(frozen=True)
class Placement:
    """A planned offset for one object within the packed arena."""

    obj_id: int
    offset: int
    size: int


@dataclass
class PackingPlan:
    placements: List[Placement]
    total_bytes: int
    line_size: int


class HotColdPacker:
    """Greedy hot-first packing with line alignment at the hot/cold seam.

    Objects are laid out in descending hotness; the first cold object is
    pushed to a fresh line so a hot line never shares with cold data.
    """

    #: the cache line the seam is aligned to
    LINE_SIZE = 64
    #: hotness at and above which an object is hot
    HOT_THRESHOLD = 1.0

    def pack(self, objects: Iterable[ObjectInfo]) -> PackingPlan:
        ordered = sorted(objects, key=lambda o: (-o.hotness, o.obj_id))
        placements: List[Placement] = []
        offset = 0
        crossed_seam = False
        for obj in ordered:
            if not crossed_seam and obj.hotness < self.HOT_THRESHOLD:
                offset = _align(offset, self.LINE_SIZE)
                crossed_seam = True
            placements.append(Placement(obj.obj_id, offset, obj.size))
            offset += _align(obj.size, 8)
        return PackingPlan(placements, total_bytes=offset, line_size=self.LINE_SIZE)


def address_order_plan(objects: Iterable[ObjectInfo]) -> PackingPlan:
    """Baseline: objects laid out in id order, ignoring hotness."""
    placements: List[Placement] = []
    offset = 0
    for obj in sorted(objects, key=lambda o: o.obj_id):
        placements.append(Placement(obj.obj_id, offset, obj.size))
        offset += _align(obj.size, 8)
    return PackingPlan(placements, total_bytes=offset, line_size=64)


def expected_lines_touched(
    plan: PackingPlan, access_trace: Sequence[int], objects: Sequence[ObjectInfo]
) -> int:
    """Distinct lines pulled when replaying ``access_trace`` of object ids."""
    offsets: Dict[int, Tuple[int, int]] = {
        p.obj_id: (p.offset, p.size) for p in plan.placements
    }
    lines = set()
    for obj_id in access_trace:
        offset, size = offsets[obj_id]
        first = offset // plan.line_size
        last = (offset + size - 1) // plan.line_size
        lines.update(range(first, last + 1))
    return len(lines)


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)

"""FlacDK — the FlacOS development kit (§3.2).

Three levels of libraries plus memory management and reliability, used
by both the FlacOS kernel and applications:

1. hardware operations — atomics, barriers, cache maintenance — are the
   methods of :class:`repro.rack.machine.NodeContext` itself.
2. :mod:`repro.flacdk.sync` — locks and the three lock-free families
   (replication, delegation, quiescence) over the shared op log.
3. :mod:`repro.flacdk.structures` — concurrent shared data structures.

Plus :mod:`repro.flacdk.alloc` (object allocator, layout, relocation,
reclamation) and :mod:`repro.flacdk.reliability` (monitor, prediction,
repair, scrub).
"""

from . import alloc, reliability, structures, sync

__all__ = ["alloc", "reliability", "structures", "sync"]

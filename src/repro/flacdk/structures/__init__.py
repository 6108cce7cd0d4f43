"""FlacDK level 3: high-level concurrent shared data structures (§3.2).

The SPSC ring buffer (the IPC data plane) and the radix tree that
indexes page tables and the page cache.
"""

from .radixtree import RadixError, SharedRadixTree
from .ringbuffer import RingError, SpscRing

__all__ = [
    "RadixError",
    "RingError",
    "SharedRadixTree",
    "SpscRing",
]

"""Software cost model for FlacOS kernel operations.

The rack substrate charges for memory, cache, and interconnect; these
are the *CPU-side* costs of kernel code paths (fault handling, context
switches, syscall entry), charged via ``ctx.advance``.  Values are
representative of a warmed-up ARM server kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..rack.params import refuse_bad_costs


@dataclass
class OsCosts:
    """Nanosecond costs of kernel software paths."""

    #: Syscall entry/exit.
    syscall_ns: float = 300.0
    #: Page-fault trap + handler software overhead (excludes memory ops).
    page_fault_ns: float = 1200.0
    #: TLB hit in the per-node software TLB.
    tlb_hit_ns: float = 1.0
    #: Per-entry local TLB invalidation.
    tlb_invalidate_ns: float = 40.0
    #: Full context switch (thread migration RPC pays this instead of a
    #: network round trip).
    context_switch_ns: float = 1500.0
    #: Address-space switch without a thread switch (migrating RPC).
    addr_space_switch_ns: float = 600.0
    #: VFS path resolution per component.
    path_component_ns: float = 150.0
    #: Directory entry / inode metadata operation.
    metadata_op_ns: float = 250.0
    #: Socket buffer allocation in a traditional network stack.
    skb_alloc_ns: float = 350.0
    #: Kernel/user copy, per byte (both stacks pay it when they copy).
    copy_ns_per_byte: float = 0.05

    __post_init__ = refuse_bad_costs

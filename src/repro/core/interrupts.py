"""Rack-wide interrupt state in shared memory (§5 "Open Challenges").

The paper lists three missing interrupt capabilities — IPIs to cores on
other nodes, mwait on a global-memory word, and device-interrupt routing
to any node — and notes they need hardware support.  Boot lays out the
shared-memory state a software version would use: one pending-vector
doorbell word per node, and an irq -> node routing table.  Nothing
delivers, waits on or re-routes an interrupt yet (ROADMAP item 14(c)).
"""

from __future__ import annotations

from ..rack.machine import NodeContext


class InterruptController:
    """Per-node pending-vector doorbells.

    Layout at ``base``: one pending-bitmask word per node.
    """

    def __init__(self, base: int, n_nodes: int) -> None:
        self.base = base
        self.n_nodes = n_nodes

    @staticmethod
    def region_size(n_nodes: int) -> int:
        return 8 * n_nodes

    def format(self, ctx: NodeContext) -> "InterruptController":
        for node in range(self.n_nodes):
            ctx.atomic_store(self.base + node * 8, 0)
        return self


class IrqBalancer:
    """The rack-wide interrupt routing table (§5's irq_balance).

    One irq -> node word per IRQ in shared memory, so any node could
    deliver a device interrupt to wherever it is routed; boot routes
    IRQ ``i`` to node ``i % n_nodes``.
    """

    def __init__(self, table_base: int, n_irqs: int, controller: InterruptController) -> None:
        self.table_base = table_base
        self.n_irqs = n_irqs
        self.controller = controller

    @staticmethod
    def region_size(n_irqs: int) -> int:
        return 8 * n_irqs

    def format(self, ctx: NodeContext) -> "IrqBalancer":
        for irq in range(self.n_irqs):
            ctx.atomic_store(self.table_base + irq * 8, irq % self.controller.n_nodes)
        return self

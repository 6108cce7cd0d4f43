"""Cost model for the baseline network stacks.

Figure 4's analysis attributes most of the networking method's latency
to *software* overhead: socket buffer allocation, data copies, and
stack processing.  These parameters make each of those taxes explicit
so the benchmarks can report where the time goes.  Values are
representative of a tuned kernel TCP stack on a direct 25 GbE link and
of kernel-bypass RDMA on the same wire.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..rack.params import finite, refuse, refuse_bad_costs, whole


@dataclass
class EthernetSpec:
    """The physical link."""

    #: Payload bandwidth in bytes per nanosecond (25 GbE ~ 3.1 B/ns).
    bandwidth_bytes_per_ns: float = 3.1
    #: Propagation + PHY/MAC latency per packet, one way.
    propagation_ns: float = 600.0
    #: Maximum transmission unit (payload bytes per packet).
    mtu: int = 1500
    #: Per-packet header overhead on the wire (Ethernet+IP+TCP).
    header_bytes: int = 66

    def __post_init__(self) -> None:
        # packet_count divides by the mtu and wire_ns by the bandwidth
        if not (finite(self.bandwidth_bytes_per_ns) and self.bandwidth_bytes_per_ns > 0):
            refuse(self, "bandwidth_bytes_per_ns", "a finite number > 0")
        if not (finite(self.propagation_ns) and self.propagation_ns >= 0):
            refuse(self, "propagation_ns", "a finite number >= 0")
        if not (whole(self.mtu) and self.mtu >= 1):
            refuse(self, "mtu", "an integer >= 1")
        if not whole(self.header_bytes):
            refuse(self, "header_bytes", "an integer >= 0")


@dataclass
class TcpCosts:
    """Kernel TCP/IP software path, per side."""

    #: send()/recv() syscall entry+exit.
    syscall_ns: float = 300.0
    #: skb allocation per packet (the paper's "buffer allocations").
    skb_alloc_ns: float = 350.0
    #: user<->kernel copy, per byte (the paper's "data copies").
    copy_ns_per_byte: float = 0.05
    #: TX-side protocol processing per packet (tcp_sendmsg..qdisc..driver).
    tx_stack_ns: float = 1600.0
    #: RX-side protocol processing per packet (irq, softirq, tcp_rcv).
    rx_stack_ns: float = 2400.0
    #: waking the blocked receiver process (scheduler + context switch).
    wakeup_ns: float = 1900.0

    __post_init__ = refuse_bad_costs


@dataclass
class RdmaCosts:
    """Kernel-bypass RDMA verbs, per side."""

    #: posting a WQE + doorbell (user space, no syscall).
    post_ns: float = 250.0
    #: NIC processing per message, each side.
    nic_ns: float = 750.0
    #: polling a completion.
    poll_cq_ns: float = 150.0
    #: registered-memory copy avoided: payload still crosses PCIe once.
    pcie_ns_per_byte: float = 0.03

    __post_init__ = refuse_bad_costs


@dataclass
class SerializationCosts:
    """Structured-payload (de)serialisation — a "data center tax"."""

    fixed_ns: float = 400.0
    per_byte_ns: float = 0.25

    __post_init__ = refuse_bad_costs

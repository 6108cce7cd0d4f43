"""Baseline network substrates (Figure 1a systems).

Kernel TCP/IP (the networking method Figure 4 compares against),
kernel-bypass RDMA (what disaggregated systems use), the Ethernet link
model beneath both, and serialization cost accounting.
"""

from .ethernet import EthernetLink
from .params import EthernetSpec, RdmaCosts, SerializationCosts, TcpCosts
from .rdma import RdmaNetwork, RdmaQueuePair, RdmaStats
from .serialization import Serializer, SerializerStats
from .tcp import TcpConnection, TcpError, TcpNetwork, TcpStats

__all__ = [
    "EthernetLink",
    "EthernetSpec",
    "RdmaCosts",
    "RdmaNetwork",
    "RdmaQueuePair",
    "RdmaStats",
    "SerializationCosts",
    "Serializer",
    "SerializerStats",
    "TcpConnection",
    "TcpCosts",
    "TcpError",
    "TcpNetwork",
    "TcpStats",
]

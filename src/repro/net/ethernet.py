"""Ethernet link model: packetisation, wire time, delivery ordering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .params import EthernetSpec


@dataclass
class EthernetLink:
    """A point-to-point full-duplex link between two nodes."""

    spec: EthernetSpec = field(default_factory=EthernetSpec)
    packets_carried: int = 0
    bytes_carried: int = 0
    down: bool = False
    #: when the transmitter finishes serialising the last queued packet —
    #: back-to-back messages queue behind each other, so a stream cannot
    #: exceed wire bandwidth no matter how fast the sender's CPU is.
    free_at_ns: float = 0.0

    def packetise(self, size: int) -> List[int]:
        """Split a payload into per-packet payload sizes (>=1 packet)."""
        if size <= 0:
            return [0]
        mtu = self.spec.mtu
        full, last = divmod(size, mtu)
        sizes = [mtu] * full
        if last:
            sizes.append(last)
        return sizes

    def packet_count(self, size: int) -> int:
        """``len(packetise(size))`` without building the list."""
        return -(-size // self.spec.mtu) if size > 0 else 1

    def wire_ns(self, payload_bytes: int) -> float:
        """One packet's time on the wire, including headers and PHY."""
        total = payload_bytes + self.spec.header_bytes
        return self.spec.propagation_ns + total / self.spec.bandwidth_bytes_per_ns

    def schedule(self, now_ns: float, size: int) -> float:
        """Queue a payload on the transmitter; returns its arrival time.

        Serialisation starts when the link is free (earlier messages
        drain first), so sustained streams are bandwidth-limited.
        """
        if self.down:
            raise ConnectionError("link is down")
        start = max(now_ns, self.free_at_ns)
        packets = self.packetise(size)
        header, bandwidth = self.spec.header_bytes, self.spec.bandwidth_bytes_per_ns
        self.free_at_ns = start + sum([(p + header) / bandwidth for p in packets])
        self.packets_carried += len(packets)
        self.bytes_carried += sum(packets)
        return self.free_at_ns + self.spec.propagation_ns

"""The FlacOS kernel: the paper's primary contribution (§3).

``FlacOS.boot(machine)`` wires the memory system (§3.3), FlacFS (§3.4),
IPC/RPC (§3.5), and fault boxes with adaptive redundancy (§3.6) over a
simulated rack.
"""

from . import boot, fault, fs, ipc, memory
from .kernel import FlacOS
from .params import OsCosts

__all__ = [
    "FlacOS",
    "OsCosts",
    "boot",
    "fault",
    "fs",
    "ipc",
    "memory",
]

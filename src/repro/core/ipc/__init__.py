"""FlacOS communication subsystem (§3.5).

Zero-copy shared-buffer sockets (domain-socket API), the replicated
name registry, and migration-based RPC with shared code contexts.
"""

from .registry import Endpoint, NameInUse, NameRegistry, RegistryError, UnknownName
from .rpc import RpcError, RpcStats, RpcSystem
from .shared_buffer import PACKED_SIZE, BufferPool, BufferRef
from .socket import (
    Connection,
    ConnectionGeometry,
    INLINE_MAX,
    IpcError,
    IpcSystem,
    ListenSocket,
)

__all__ = [
    "BufferPool",
    "BufferRef",
    "Connection",
    "ConnectionGeometry",
    "Endpoint",
    "INLINE_MAX",
    "IpcError",
    "IpcSystem",
    "ListenSocket",
    "NameInUse",
    "NameRegistry",
    "PACKED_SIZE",
    "RegistryError",
    "RpcError",
    "RpcStats",
    "RpcSystem",
    "UnknownName",
]

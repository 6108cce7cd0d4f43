"""Socket/service name registry — replicated metadata (§3.5).

Socket structures stay in local memory; what crosses nodes is the
*name → endpoint* binding, synchronised with the replication method so
connection establishment and destination addressing are one local
lookup after the replica has synced.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ...flacdk.sync import NodeReplication, OperationLog
from ...rack.machine import NodeContext


class RegistryError(Exception):
    pass


class NameInUse(RegistryError):
    pass


class UnknownName(RegistryError):
    pass


@dataclass(frozen=True)
class Endpoint:
    """Where a named service listens."""

    name: str
    node_id: int
    #: rack address of the listener's accept ring
    accept_ring_addr: int
    #: free-form extra binding data (e.g. RPC code-context address)
    meta: Optional[bytes] = None


def _apply(state: Dict[str, Endpoint], op: Any) -> Any:
    verb = op[0]
    if verb == "bind":
        endpoint = pickle.loads(op[1])
        if endpoint.name in state:
            raise NameInUse(endpoint.name)
        state[endpoint.name] = endpoint
        return None
    raise RegistryError(f"unknown registry op {verb!r}")


class NameRegistry:
    """Replicated name → endpoint map."""

    def __init__(self, log: OperationLog) -> None:
        self.nr: NodeReplication[Dict[str, Endpoint]] = NodeReplication(
            log, factory=dict, apply_fn=_apply
        )

    def bind(self, ctx: NodeContext, endpoint: Endpoint) -> None:
        self.nr.replica(ctx).execute(ctx, ("bind", pickle.dumps(endpoint)))

    def resolve(self, ctx: NodeContext, name: str) -> Endpoint:
        endpoint = self.nr.replica(ctx).read(ctx, lambda state: state.get(name))
        if endpoint is None:
            raise UnknownName(name)
        return endpoint

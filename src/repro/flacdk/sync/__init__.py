"""FlacDK level 2: synchronisation interfaces (§3.2).

Locking (:class:`GlobalSpinLock` — possible but discouraged) and the
three lock-free families the paper co-designs for non-coherent shared
memory: replication (:class:`NodeReplication`, over the shared
:class:`OperationLog`), delegation (:class:`DelegationService`) and
quiescence/RCU (:class:`RcuCell`).  Bounded staleness
(:class:`BoundedStaleCell`) trades linearisability for local reads.
"""

from .bounded import BoundedStaleCell, StalenessStats
from .delegation import DelegationError, DelegationService
from .oplog import LogError, LogFullError, OperationLog
from .quiescence import RcuCell
from .replication import NodeReplication, Replica
from .spinlock import GlobalSpinLock, LockTimeoutError, SpinLockStats

__all__ = [
    "BoundedStaleCell",
    "DelegationError",
    "DelegationService",
    "GlobalSpinLock",
    "LockTimeoutError",
    "LogError",
    "LogFullError",
    "NodeReplication",
    "OperationLog",
    "RcuCell",
    "Replica",
    "SpinLockStats",
    "StalenessStats",
]

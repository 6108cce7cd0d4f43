"""FlacDK level 2: synchronisation interfaces (§3.2).

Locking (:class:`GlobalSpinLock` — possible but discouraged) and the
three lock-free families the paper co-designs for non-coherent shared
memory: replication (:class:`NodeReplication`), delegation
(:class:`DelegationService`), and quiescence/RCU (:class:`RcuCell`,
:class:`VersionChain`), all over the shared :class:`OperationLog`.
"""

from .bounded import BoundedStaleCell, StalenessStats
from .delegation import DelegationError, DelegationService
from .oplog import LogError, LogFullError, OperationLog
from .quiescence import RcuCell, VersionChain
from .replication import Codec, NodeReplication, Replica
from .spinlock import GlobalSpinLock, LockTimeoutError, SpinLockStats

__all__ = [
    "BoundedStaleCell",
    "Codec",
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
    "VersionChain",
]

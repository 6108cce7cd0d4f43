"""FlacOS system-wide reliability (§3.6).

The fault-box abstraction (vertical per-application state
consolidation), adaptive redundancy (checkpoint / partial replication /
n-modular execution), and the recovery coordinator that bounds blast
radius to the boxes a fault actually touches.
"""

from .fault_box import BoxSnapshot, FaultBox, FaultBoxManager
from .nmodular import NModularExecutor, VoteResult, VotingFailure
from .recovery import BoxRecovery, FaultRecoveryCoordinator, IncidentReport
from .redundancy import (
    AdaptiveRedundancyPolicy,
    RedundancyDecision,
    RedundancyMode,
)
from .repair_sources import CheckpointPageSource, FsBlockSource, ReplicaPageSource
from .replication import PartialReplicator, ReplicaState

__all__ = [
    "CheckpointPageSource",
    "FsBlockSource",
    "ReplicaPageSource",
    "AdaptiveRedundancyPolicy",
    "BoxRecovery",
    "BoxSnapshot",
    "FaultBox",
    "FaultBoxManager",
    "FaultRecoveryCoordinator",
    "IncidentReport",
    "NModularExecutor",
    "PartialReplicator",
    "RedundancyDecision",
    "RedundancyMode",
    "ReplicaState",
    "VoteResult",
    "VotingFailure",
]

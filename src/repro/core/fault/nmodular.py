"""N-modular execution with output voting (§3.6, [21, 57]).

For critical tasks under predicted memory risk, FlacOS runs the
computation N times — ideally on different nodes so no single DRAM or
interconnect path is common to all variants — and takes the majority of
the serialised outputs.  Silent data corruption that flips one
variant's result is outvoted; a detected fault (poisoned read) simply
removes that variant from the electorate.
"""

from __future__ import annotations

import pickle
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, List, Sequence

from ...rack.machine import NodeContext
from ...rack.memory import UncorrectableMemoryError
from ...rack.node import NodeCrashedError

#: votes the winning output needs
MIN_MAJORITY = 2


class VotingFailure(Exception):
    """No output achieved a majority."""


@dataclass
class VoteResult:
    value: Any
    agreeing: int
    total: int
    dissenting: int
    faulted: int


class NModularExecutor:
    """Runs a function on several node contexts and votes on outputs."""

    def run(
        self,
        contexts: Sequence[NodeContext],
        fn: Callable[[NodeContext], Any],
    ) -> VoteResult:
        """Execute ``fn`` once per context and majority-vote the outputs.

        Outputs are compared by their pickled bytes (deterministic
        functions required).  Variants that hit detected faults (UE,
        node crash) abstain.
        """
        if len(contexts) < 2:
            raise ValueError("n-modular execution needs at least 2 variants")
        outputs: List[bytes] = []
        faulted = 0
        for ctx in contexts:
            try:
                outputs.append(pickle.dumps(fn(ctx), protocol=pickle.HIGHEST_PROTOCOL))
            except (UncorrectableMemoryError, NodeCrashedError):
                faulted += 1
        if not outputs:
            raise VotingFailure("every variant faulted")
        counts = Counter(outputs)
        winner, agreeing = counts.most_common(1)[0]
        if agreeing < MIN_MAJORITY and len(contexts) > 1:
            raise VotingFailure(
                f"no majority: best output has {agreeing}/{len(contexts)} votes"
            )
        return VoteResult(
            value=pickle.loads(winner),
            agreeing=agreeing,
            total=len(contexts),
            dissenting=len(outputs) - agreeing,
            faulted=faulted,
        )

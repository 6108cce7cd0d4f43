"""Replication-based synchronisation (§3.2; NrOS [4], predictive logs [53]).

Every node keeps a *local replica* of the shared object in its own
memory; mutations are serialised through the shared
:class:`~repro.flacdk.sync.oplog.OperationLog` and replayed on each
replica.  The common path — reads, and replays of already-fetched ops —
touches only local state, which is exactly why this family wins on
high-latency, non-coherent global memory.

Operations are arbitrary picklable Python values; the state machine
supplied by the caller interprets them.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Dict, Generic, TypeVar

from ...rack.machine import NodeContext
from .oplog import OperationLog

S = TypeVar("S")


class Codec:
    """Pluggable op serialisation; the default is pickle."""

    @staticmethod
    def dumps(op: Any) -> bytes:
        return pickle.dumps(op, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def loads(data: bytes) -> Any:
        return pickle.loads(data)


class NodeReplication(Generic[S]):
    """Coordinates one replicated object across the rack.

    ``factory`` builds an empty replica state; ``apply_fn(state, op)``
    mutates it and returns the op's result.  All replicas apply the same
    committed prefix of the log, so any two replicas that have replayed
    to the same index are identical.
    """

    def __init__(
        self,
        log: OperationLog,
        factory: Callable[[], S],
        apply_fn: Callable[[S, Any], Any],
        codec: Codec = Codec(),
        apply_cost_ns: float = 30.0,
    ) -> None:
        self.log = log
        self.factory = factory
        self.apply_fn = apply_fn
        self.codec = codec
        #: Software cost charged per op replayed (models the replay CPU time).
        self.apply_cost_ns = apply_cost_ns
        self._replicas: Dict[int, "Replica[S]"] = {}

    def replica(self, ctx: NodeContext) -> "Replica[S]":
        """The calling node's replica handle (created on first use)."""
        rep = self._replicas.get(ctx.node_id)
        if rep is None:
            rep = Replica(self, self.factory())
            self._replicas[ctx.node_id] = rep
        return rep

    def compact(self, ctx: NodeContext) -> bool:
        """Reset the log if every replica has applied everything.

        Returns True when compaction happened.  (A production system
        snapshots instead; bounded tests drive all replicas to the tail
        first.)
        """
        reserved = self.log.reserved(ctx)
        if any(rep.applied < reserved for rep in self._replicas.values()):
            return False
        self.log.reset(ctx)
        for rep in self._replicas.values():
            rep.applied = 0
        return True


class _FailedOp:
    """A deterministic failure produced by apply_fn.

    Ops are appended to the log *before* they are applied, so an op that
    raises (e.g. creating a file that exists) is still replayed by every
    replica — and must fail identically everywhere.  The exception is
    captured as the op's result; only the node that issued the op
    re-raises it to its caller.
    """

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


class Replica(Generic[S]):
    """One node's view of the replicated object."""

    def __init__(self, nr: NodeReplication, state: S) -> None:
        self.nr = nr
        self.state = state
        self.applied = 0

    def execute(self, ctx: NodeContext, op: Any) -> Any:
        """Linearisable mutation: append to the shared log, then replay
        the committed prefix (including our own op) locally."""
        payload = self.nr.codec.dumps(op)
        idx = self.nr.log.append(ctx, payload)
        self._catch_up(ctx, through=idx)
        # our op's result was produced during catch-up (it replayed last)
        result = self._last_result
        if isinstance(result, _FailedOp):
            raise result.exc
        return result

    def read(self, ctx: NodeContext, query: Callable[[S], Any]) -> Any:
        """Linearisable read: replay everything committed, query locally."""
        self._catch_up(ctx)
        return query(self.state)

    def read_local(self, query: Callable[[S], Any]) -> Any:
        """Eventually-consistent read of the local replica (no log traffic)."""
        return query(self.state)

    def _catch_up(self, ctx: NodeContext, through: int = -1) -> None:
        self._last_result = None
        while True:
            payload = self.nr.log.read(ctx, self.applied) if self.applied < self.nr.log.capacity else None
            if payload is None:
                if through >= self.applied:
                    raise RuntimeError(
                        f"log gap at {self.applied} while replaying through {through}"
                    )
                return
            op = self.nr.codec.loads(payload)
            ctx.advance(self.nr.apply_cost_ns)
            try:
                self._last_result = self.nr.apply_fn(self.state, op)
            except Exception as exc:  # deterministic op failure: same on all replicas
                self._last_result = _FailedOp(exc)
            self.applied += 1
            if through >= 0 and self.applied > through:
                return

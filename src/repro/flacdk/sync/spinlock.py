"""Lock-based synchronisation on global memory — the strawman (§2.2).

Locks *can* be built on a non-coherent rack because the atomic
instructions bypass caches, but every acquire/release is a full
interconnect round trip and contended acquires hammer one memory word
from every node.  FlacDK provides the lock for completeness (and for the
E3 ablation that shows why the paper avoids it); the lock-free families
in this package are the recommended tools.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from ...rack.machine import NodeContext

_UNLOCKED = 0
#: a failed acquire waits this long before the next attempt, doubling up to
#: :data:`MAX_BACKOFF_NS`
BACKOFF_NS = 200.0
MAX_BACKOFF_NS = 6400.0
#: attempts :meth:`GlobalSpinLock.acquire` makes before giving up
MAX_SPINS = 64


class LockTimeoutError(Exception):
    """acquire() exhausted its spin budget.

    In this simulator nodes are driven cooperatively, so a lock held by
    another node cannot be released while we spin — blocking forever
    would deadlock the host process.  Callers either use try_acquire in
    their own scheduling loop or accept this exception.
    """


@dataclass
class SpinLockStats:
    acquires: int = 0
    failed_attempts: int = 0
    releases: int = 0


class GlobalSpinLock:
    """A test-and-set lock on one word of global memory."""

    def __init__(self, addr: int) -> None:
        self.addr = addr
        self.stats = SpinLockStats()

    def format(self, ctx: NodeContext) -> "GlobalSpinLock":
        ctx.atomic_store(self.addr, _UNLOCKED)
        return self

    def try_acquire(self, ctx: NodeContext) -> bool:
        """One CAS attempt; charges the atomic round trip either way."""
        swapped, _ = ctx.cas(self.addr, _UNLOCKED, self._tag(ctx))
        if swapped:
            self.stats.acquires += 1
        else:
            self.stats.failed_attempts += 1
        return swapped

    def acquire(self, ctx: NodeContext) -> None:
        """Spin with exponential backoff up to :data:`MAX_SPINS` attempts."""
        backoff = BACKOFF_NS
        for _ in range(MAX_SPINS):
            if self.try_acquire(ctx):
                return
            ctx.advance(backoff)
            backoff = min(backoff * 2, MAX_BACKOFF_NS)
        raise LockTimeoutError(f"lock at {self.addr:#x} still held after {MAX_SPINS} attempts")

    def release(self, ctx: NodeContext) -> None:
        holder = ctx.atomic_load(self.addr)
        if holder != self._tag(ctx):
            raise RuntimeError(
                f"node {ctx.node_id} releasing lock at {self.addr:#x} held by tag {holder}"
            )
        ctx.atomic_store(self.addr, _UNLOCKED)
        self.stats.releases += 1

    def holder_tag(self, ctx: NodeContext) -> int:
        """0 when free, otherwise the holder's tag (node id + 1)."""
        return ctx.atomic_load(self.addr)

    def force_release(self, ctx: NodeContext) -> None:
        """Break the lock (recovery path after the holder crashed)."""
        ctx.atomic_store(self.addr, _UNLOCKED)

    @contextmanager
    def held(self, ctx: NodeContext):
        self.acquire(ctx)
        try:
            yield
        finally:
            self.release(ctx)

    @staticmethod
    def _tag(ctx: NodeContext) -> int:
        return ctx.node_id + 1

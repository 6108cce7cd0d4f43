"""Shared exponential backoff with deterministic jitter.

A :class:`BackoffPolicy` names the base delay, growth factor and
attempt budget of a bounded-retry loop, and computes each attempt's
charged delay; the request path's retries
(``repro.workloads.resilience.RETRY_BACKOFF``) are its caller.

Jitter is *deterministic*: real systems randomise backoff so a thundering
herd decorrelates, but the simulator must replay byte-identically per
seed.  The jitter fraction is therefore derived from a blake2b hash of a
caller-supplied key (tenant name, request sequence, attempt number...)
— different callers decorrelate exactly like random jitter would, while
the same (policy, key) always yields the same nanoseconds.

Delays are *charged* to whoever waits: callers advance their simulated
clock (``ctx.advance``) or fold the delay into a latency model.  The
policy itself never touches a clock.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


def jitter_fraction(*key: object) -> float:
    """A deterministic pseudo-random fraction in ``[0, 1)`` from ``key``.

    Stable across processes and platforms (pure blake2b over the key's
    repr), so seeded campaigns replay identical backoff schedules.
    """
    blob = "\x1f".join(repr(k) for k in key).encode()
    digest = hashlib.blake2b(blob, digest_size=8).digest()
    return int.from_bytes(digest, "big") / float(1 << 64)


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff: ``base * multiplier^attempt``, jittered.

    ``jitter`` is the fraction of each delay that floats: ``0.0`` means
    exact exponential, ``0.5`` means the delay lands deterministically in
    ``[0.5x, 1.0x]`` of the exponential value, keyed by whatever the
    caller passes to :meth:`delay_ns`.
    """

    base_ns: float = 800.0
    multiplier: float = 2.0
    max_attempts: int = 4
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.base_ns < 0 or self.multiplier < 1.0:
            raise ValueError(f"bad backoff shape: base={self.base_ns} mult={self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.max_attempts < 0:
            raise ValueError(f"max_attempts must be >= 0, got {self.max_attempts}")

    def delay_ns(self, attempt: int, *key: object) -> float:
        """The charged delay before retry number ``attempt`` (0-based).

        ``key`` feeds the deterministic jitter; with ``jitter=0`` it is
        ignored and the delay is exactly ``base * multiplier^attempt``.
        """
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        delay = self.base_ns * (self.multiplier ** attempt)
        if self.jitter:
            frac = jitter_fraction(attempt, *key)
            delay *= 1.0 - self.jitter * frac
        return delay

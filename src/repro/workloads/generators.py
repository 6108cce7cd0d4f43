"""Workload generators for the benchmarks.

Deterministic (seeded) generators for key-value request streams — key
popularity (uniform / zipfian), value sizes (fixed / lognormal), and
operation mixes — plus deterministic payload synthesis so the same
logical request always carries the same bytes.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

#: every key is this prefix and its 12-digit index
KEY_PREFIX = b"key:"


@dataclass(frozen=True)
class Request:
    """One KV operation."""

    op: str  # "get" | "set"
    key: bytes
    value: bytes = b""


class KeyGenerator:
    """Draws keys from a fixed keyspace with a chosen skew."""

    def __init__(
        self,
        n_keys: int,
        distribution: str = "uniform",
        zipf_s: float = 1.1,
        seed: int = 0,
    ) -> None:
        if n_keys < 1:
            raise ValueError("need at least one key")
        if distribution not in ("uniform", "zipf"):
            raise ValueError(f"unknown distribution {distribution!r}")
        if distribution == "zipf" and zipf_s <= 1.0:
            raise ValueError("zipf exponent must be > 1")
        self.n_keys = n_keys
        self.distribution = distribution
        self.zipf_s = zipf_s
        self.rng = np.random.default_rng(seed)

    def key(self, index: int) -> bytes:
        return KEY_PREFIX + b"%012d" % (index % self.n_keys)

    def draw_indices(self, count: int) -> np.ndarray:
        """The next ``count`` key *indices* (the vectorized form the
        traffic engine consumes; :meth:`draw` renders them to bytes)."""
        if self.distribution == "uniform":
            return self.rng.integers(0, self.n_keys, size=count)
        return (self.rng.zipf(self.zipf_s, size=count) - 1) % self.n_keys

    def draw(self, count: int) -> List[bytes]:
        return [self.key(int(i)) for i in self.draw_indices(count)]


class ValueGenerator:
    """Synthesises values of configurable size.

    ``value_for`` is a *pure function of the key*: lognormal sizes are
    derived from the key's hash (hash -> uniform -> inverse normal CDF),
    not from a sequential RNG.  That makes the same logical request
    carry the same bytes no matter how many values were generated
    before it — in particular, ``RequestStream.preload()`` writes
    exactly what a later ``generate()`` SET would.
    """

    def __init__(self, size: int = 64, sigma: float = 0.0, seed: int = 0) -> None:
        if size < 1:
            raise ValueError("value size must be >= 1")
        self.size = size
        self.sigma = sigma
        self.rng = np.random.default_rng(seed)  # kept for API compatibility

    def value_for(self, key: bytes) -> bytes:
        """Deterministic content for a key, at the configured size."""
        seed = hashlib.blake2b(key, digest_size=32).digest()
        if self.sigma > 0:
            # key-hash-derived lognormal: uniform from the first 8 hash
            # bytes (offset half a ulp so u is strictly inside (0, 1))
            u = (int.from_bytes(seed[:8], "little") + 0.5) / 2.0**64
            z = statistics.NormalDist().inv_cdf(u)
            size = max(1, int(math.exp(math.log(self.size) + self.sigma * z)))
        else:
            size = self.size
        reps = (size + len(seed) - 1) // len(seed)
        return (seed * reps)[:size]


class RequestStream:
    """A reproducible GET/SET mix over a keyspace."""

    def __init__(
        self,
        keys: KeyGenerator,
        values: ValueGenerator,
        get_ratio: float = 0.5,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= get_ratio <= 1.0:
            raise ValueError("get_ratio must be within [0, 1]")
        self.keys = keys
        self.values = values
        self.get_ratio = get_ratio
        self.rng = np.random.default_rng(seed)

    def generate(self, count: int) -> Iterator[Request]:
        keys = self.keys.draw(count)
        ops = self.rng.random(count)
        for key, roll in zip(keys, ops):
            if roll < self.get_ratio:
                yield Request(op="get", key=key)
            else:
                yield Request(op="set", key=key, value=self.values.value_for(key))

    def preload(self) -> Iterator[Request]:
        """SETs covering the whole keyspace (so GETs always hit)."""
        for index in range(self.keys.n_keys):
            key = self.keys.key(index)
            yield Request(op="set", key=key, value=self.values.value_for(key))

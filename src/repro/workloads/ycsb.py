"""YCSB-style workload mixes for the key-value benchmarks.

The standard cloud-serving workloads, adapted to MiniRedis's command
set.  Each workload is a reproducible stream of RESP commands:

* **A** — update heavy: 50% reads / 50% updates, zipfian keys
* **B** — read mostly: 95% reads / 5% updates, zipfian keys
* **C** — read only, zipfian keys
* **D** — read latest: 95% reads skewed to recent inserts / 5% inserts
* **F** — read-modify-write: read then update the same key
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from .generators import KeyGenerator, ValueGenerator

Command = Tuple[bytes, ...]

WORKLOADS = ("A", "B", "C", "D", "F")


@dataclass
class YcsbConfig:
    n_keys: int = 1000
    value_size: int = 256
    seed: int = 0
    #: the key popularity's Zipf exponent
    ZIPF_S = 1.2


class YcsbWorkload:
    """Generates load and run phases for one YCSB letter."""

    def __init__(self, letter: str, config: YcsbConfig = YcsbConfig()) -> None:
        letter = letter.upper()
        if letter not in WORKLOADS:
            raise ValueError(f"unknown YCSB workload {letter!r}; choose from {WORKLOADS}")
        self.letter = letter
        self.config = config
        self.keys = KeyGenerator(
            config.n_keys, "zipf", zipf_s=config.ZIPF_S, seed=config.seed
        )
        self.values = ValueGenerator(config.value_size, seed=config.seed)
        self.rng = np.random.default_rng(config.seed + 17)
        #: insert cursor for workload D ("read latest")
        self._inserted = config.n_keys

    # -- phases -------------------------------------------------------------------

    def load_phase(self) -> Iterator[Command]:
        """SETs covering the initial keyspace."""
        for index in range(self.config.n_keys):
            key = self.keys.key(index)
            yield (b"SET", key, self.values.value_for(key))

    def run_phase(self, n_ops: int) -> Iterator[Command]:
        for _ in range(n_ops):
            yield from self._one_op()

    def _one_op(self) -> Iterator[Command]:
        roll = self.rng.random()
        if self.letter == "A":
            yield self._read() if roll < 0.5 else self._update()
        elif self.letter == "B":
            yield self._read() if roll < 0.95 else self._update()
        elif self.letter == "C":
            yield self._read()
        elif self.letter == "D":
            if roll < 0.95:
                yield self._read_latest()
            else:
                yield self._insert()
        elif self.letter == "F":
            # read-modify-write: two commands on the same key
            key = self._draw_key()
            yield (b"GET", key)
            yield (b"SET", key, self.values.value_for(key + b"!"))

    # -- op builders -----------------------------------------------------------------

    def _draw_key(self) -> bytes:
        return self.keys.draw(1)[0]

    def _read(self) -> Command:
        return (b"GET", self._draw_key())

    def _update(self) -> Command:
        key = self._draw_key()
        return (b"SET", key, self.values.value_for(key + b"~"))

    def _insert(self) -> Command:
        key = b"latest:%012d" % self._inserted
        self._inserted += 1
        return (b"SET", key, self.values.value_for(key))

    def _read_latest(self) -> Command:
        """Skewed towards the most recent inserts (workload D's pattern)."""
        newest = self._inserted - 1
        offset = int(self.rng.exponential(scale=8))
        index = max(self.config.n_keys, newest - offset)
        if index >= self._inserted:
            return self._read()
        return (b"GET", b"latest:%012d" % index)

"""Open-loop arrival processes, pre-sampled in bulk.

An *open-loop* workload decouples request arrival from request
completion: arrivals keep coming at the offered rate whether or not the
system keeps up, which is what exposes queueing collapse and makes
admission control measurable (a closed loop self-throttles and hides
both).  These processes generate the arrival timestamps for
:mod:`repro.workloads.traffic`.

Two determinism properties the tests pin:

* **seeded** — the same seed yields the byte-identical timestamp
  sequence;
* **chunk-invariant** — the sequence does not depend on how many
  timestamps are requested per call.  Every candidate arrival consumes
  a *fixed* number of uniform draws (one for its exponential gap, plus
  one thinning draw for modulated processes) taken row-wise from one
  ``Generator.random`` stream, so sampling 10k arrivals in one call or
  in 100 calls of 100 replays the identical stream.

Exponential gaps are derived by inverse transform (``-log1p(-u) /
rate``) rather than ``Generator.exponential`` because the ziggurat
method consumes a variable number of draws per sample, which would
break chunk invariance.
"""

from __future__ import annotations

import numpy as np

from ..rack.params import finite


def _fold_times(last_ns: float, gaps_ns: np.ndarray) -> np.ndarray:
    """Absolute times from gaps by a strict left fold seeded at ``last_ns``.

    ``last + cumsum(gaps)`` rounds differently depending on where chunk
    boundaries fall (the start offset is added once per chunk, not
    folded per element), which breaks bit-level chunk invariance.  A
    single ``np.add.accumulate`` over ``[last, g1, ..., gn]`` reproduces
    the element-by-element sequential sum exactly, so any chunking of
    the same gap stream yields byte-identical timestamps.
    """
    return np.add.accumulate(np.concatenate(([last_ns], gaps_ns)))[1:]


class ArrivalProcess:
    """Base class: a seeded stream of absolute arrival times (ns)."""

    def __init__(self, rate_rps: float, seed: int = 0, start_ns: float = 0.0) -> None:
        if rate_rps <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate_rps}")
        self.rate_rps = float(rate_rps)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._last_ns = float(start_ns)

    def next_chunk(self, count: int) -> np.ndarray:
        """The next ``count`` arrival timestamps (float64 ns, ascending)."""
        raise NotImplementedError


class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson arrivals: i.i.d. exponential inter-arrival gaps."""

    def next_chunk(self, count: int) -> np.ndarray:
        if count <= 0:
            return np.empty(0, dtype=np.float64)
        u = self._rng.random(count)
        gaps_ns = -np.log1p(-u) * (1e9 / self.rate_rps)
        times = _fold_times(self._last_ns, gaps_ns)
        self._last_ns = float(times[-1])
        return times


class DiurnalProcess(ArrivalProcess):
    """Poisson arrivals whose rate follows a diurnal (sinusoidal) curve.

    ``rate(t) = base * (1 + amplitude * sin(2*pi * t / period + phase))``,
    realised by thinning a homogeneous process at the peak rate: each
    candidate arrival drawn at ``base * (1 + |amplitude|)`` is accepted
    with probability ``rate(t)/peak``.  One gap draw plus one acceptance
    draw per candidate, taken as rows of ``rng.random((n, 2))``, keeps
    the stream chunk-invariant.

    ``next_chunk(count)`` may return *fewer* than ``count`` arrivals
    (rejected candidates are simply skipped); callers loop until they
    have what they need.
    """

    def __init__(
        self,
        base_rps: float,
        amplitude: float = 0.5,
        period_s: float = 86400.0,
        phase: float = 0.0,
        seed: int = 0,
        start_ns: float = 0.0,
    ) -> None:
        # NaN-proof: a NaN period or a non-finite phase makes the rate NaN,
        # every thinning draw rejects, and a caller looping for arrivals hangs
        if not (finite(amplitude) and 0.0 <= amplitude < 1.0):
            raise ValueError("amplitude must be in [0, 1) so the rate stays positive")
        if not (finite(period_s) and period_s > 0):
            raise ValueError("period must be finite and positive")
        if not finite(phase):
            raise ValueError("phase must be finite")
        super().__init__(base_rps, seed=seed, start_ns=start_ns)
        self.amplitude = float(amplitude)
        self.period_ns = float(period_s) * 1e9
        self.phase = float(phase)
        self._peak_rps = self.rate_rps * (1.0 + self.amplitude)

    def next_chunk(self, count: int) -> np.ndarray:
        if count <= 0:
            return np.empty(0, dtype=np.float64)
        draws = self._rng.random((count, 2))
        gaps_ns = -np.log1p(-draws[:, 0]) * (1e9 / self._peak_rps)
        candidates = _fold_times(self._last_ns, gaps_ns)
        self._last_ns = float(candidates[-1])
        rates = self.rate_rps * (
            1.0
            + self.amplitude
            * np.sin(2.0 * np.pi * candidates / self.period_ns + self.phase)
        )
        accepted = draws[:, 1] < rates / self._peak_rps
        return candidates[accepted]


def make_process(
    kind: str,
    rate_rps: float,
    seed: int = 0,
    start_ns: float = 0.0,
    amplitude: float = 0.5,
    period_s: float = 86400.0,
    phase: float = 0.0,
) -> ArrivalProcess:
    """Factory used by :class:`~repro.workloads.traffic.TenantSpec`."""
    if kind == "poisson":
        return PoissonProcess(rate_rps, seed=seed, start_ns=start_ns)
    if kind == "diurnal":
        return DiurnalProcess(
            rate_rps, amplitude=amplitude, period_s=period_s, phase=phase,
            seed=seed, start_ns=start_ns,
        )
    raise ValueError(f"unknown arrival process {kind!r} (poisson | diurnal)")

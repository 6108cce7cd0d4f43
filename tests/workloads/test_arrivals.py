"""Seeded determinism and chunk invariance of the arrival processes."""

import numpy as np
import pytest

from repro.workloads.arrivals import DiurnalProcess, PoissonProcess, make_process


def test_poisson_same_seed_byte_identical():
    a = PoissonProcess(10_000.0, seed=42).next_chunk(5_000)
    b = PoissonProcess(10_000.0, seed=42).next_chunk(5_000)
    assert a.tobytes() == b.tobytes()


def test_poisson_different_seeds_differ():
    a = PoissonProcess(10_000.0, seed=1).next_chunk(100)
    b = PoissonProcess(10_000.0, seed=2).next_chunk(100)
    assert a.tobytes() != b.tobytes()


def test_poisson_chunk_invariant():
    one = PoissonProcess(50_000.0, seed=7).next_chunk(1_000)
    p = PoissonProcess(50_000.0, seed=7)
    many = np.concatenate([p.next_chunk(100) for _ in range(10)])
    assert one.tobytes() == many.tobytes()


def test_poisson_mean_gap_matches_rate():
    rate = 100_000.0
    times = PoissonProcess(rate, seed=3).next_chunk(200_000)
    gaps = np.diff(times)
    assert np.mean(gaps) == pytest.approx(1e9 / rate, rel=0.02)
    assert np.all(gaps > 0)


def test_diurnal_same_seed_byte_identical():
    kw = dict(amplitude=0.8, period_s=1.0, seed=11)
    a = DiurnalProcess(10_000.0, **kw).next_chunk(5_000)
    b = DiurnalProcess(10_000.0, **kw).next_chunk(5_000)
    assert a.tobytes() == b.tobytes()


def test_diurnal_chunk_invariant():
    kw = dict(amplitude=0.6, period_s=0.5, seed=9)
    one = DiurnalProcess(20_000.0, **kw).next_chunk(2_000)
    p = DiurnalProcess(20_000.0, **kw)
    many = np.concatenate([p.next_chunk(250) for _ in range(8)])
    assert one.tobytes() == many.tobytes()


def test_diurnal_rate_actually_modulates():
    # short period so a modest sample spans peaks and troughs; compare
    # arrival density near the sine peak vs near the trough
    period_s = 0.01
    p = DiurnalProcess(1_000_000.0, amplitude=0.9, period_s=period_s, seed=5)
    times = []
    while sum(len(t) for t in times) < 200_000:
        times.append(p.next_chunk(4_096))
    t = np.concatenate(times)
    phase = (t / (period_s * 1e9)) % 1.0
    peak = np.sum((phase > 0.15) & (phase < 0.35))    # sin ~ +1 quarter
    trough = np.sum((phase > 0.65) & (phase < 0.85))  # sin ~ -1 quarter
    assert peak > 3 * trough


def test_diurnal_amplitude_bounds():
    with pytest.raises(ValueError):
        DiurnalProcess(1_000.0, amplitude=1.0)
    with pytest.raises(ValueError):
        DiurnalProcess(1_000.0, amplitude=-0.1)


@pytest.mark.parametrize("field, value", [
    ("amplitude", float("nan")),
    ("period_s", float("nan")),
    ("period_s", float("inf")),
    ("phase", float("nan")),
    ("phase", float("inf")),
])
def test_diurnal_refuses_a_non_finite_shape(field, value):
    with pytest.raises(ValueError):
        DiurnalProcess(1_000.0, **{field: value})


def test_rate_must_be_positive():
    with pytest.raises(ValueError):
        PoissonProcess(0.0)


def test_factory():
    assert isinstance(make_process("poisson", 1_000.0), PoissonProcess)
    assert isinstance(make_process("diurnal", 1_000.0), DiurnalProcess)
    with pytest.raises(ValueError):
        make_process("bursty", 1_000.0)


def test_timestamps_ascend_and_start_after_start_ns():
    p = PoissonProcess(5_000.0, seed=2, start_ns=1e9)
    t = p.next_chunk(1_000)
    assert t[0] > 1e9
    assert np.all(np.diff(t) > 0)

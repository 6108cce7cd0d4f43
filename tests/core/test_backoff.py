"""The shared exponential-backoff + deterministic-jitter helper."""


import pytest

from repro.core.backoff import BackoffPolicy, jitter_fraction


class TestJitterFraction:
    def test_deterministic_per_key(self):
        assert jitter_fraction("svc", 3) == jitter_fraction("svc", 3)
        assert jitter_fraction("svc", 3) != jitter_fraction("svc", 4)

    def test_range(self):
        for i in range(64):
            f = jitter_fraction("k", i)
            assert 0.0 <= f < 1.0


class TestBackoffPolicy:
    def test_exponential_growth(self):
        p = BackoffPolicy(base_ns=100.0, multiplier=2.0, max_attempts=5)
        assert [p.delay_ns(a) for a in range(4)] == [100.0, 200.0, 400.0, 800.0]

    def test_jitter_shrinks_deterministically(self):
        p = BackoffPolicy(base_ns=1000.0, multiplier=2.0, jitter=0.5,
                          max_attempts=4)
        d1 = p.delay_ns(2, "tenant-a", 0)
        d2 = p.delay_ns(2, "tenant-a", 0)
        assert d1 == d2  # replay-identical
        full = 1000.0 * 2.0 ** 2
        assert full * 0.5 <= d1 <= full
        assert p.delay_ns(2, "tenant-b", 0) != d1  # keyed

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base_ns=-1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            BackoffPolicy(max_attempts=-1)


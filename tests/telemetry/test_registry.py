"""Metrics registry unit tests: bucketing, histograms, snapshots, and
the monotone delta digest the chaos journal depends on."""

import json

import numpy as np
import pytest

from repro.telemetry import (
    BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
    N_BUCKETS,
    RACK_WIDE,
    bucket_index,
    rate,
)


class TestBucketIndex:
    def test_degenerate_low_values_land_in_bucket_zero(self):
        for v in (-5.0, 0.0, 0.3, 1.0):
            assert bucket_index(v) == 0

    def test_power_of_two_is_its_buckets_upper_bound(self):
        # bucket i holds (2^(i-1), 2^i]: the bound itself belongs below
        for i in range(1, 41):
            assert bucket_index(float(1 << i)) == i
            assert bucket_index(float(1 << i) + 0.5) == (i + 1 if i < 40 else 41)

    def test_fractional_values_round_up_a_bucket(self):
        assert bucket_index(2.5) == 2  # (2, 4]
        assert bucket_index(4.0) == 2
        assert bucket_index(4.0001) == 3

    def test_overflow_bucket(self):
        assert bucket_index(float(1 << 50)) == N_BUCKETS - 1

    def test_bounds_table_matches_indexing(self):
        assert len(BUCKET_BOUNDS) == 41
        for i, bound in enumerate(BUCKET_BOUNDS):
            assert bucket_index(bound) == i


class TestHistogram:
    def test_count_sum_min_max_exact(self):
        values = (3.0, 17.0, 1.0, 250.0)
        h = Histogram()
        for v in values:
            h.observe(v)
        assert h.count == 4
        assert h.total == 271.0
        assert h.min_value == 1.0
        assert h.max_value == 250.0
        assert h.mean == pytest.approx(67.75)
        # observe_batch is the loop of observe bit for bit, split anywhere: a
        # later batch folds into the running total (2^53 + 1 + 1 is 2^53 added
        # one at a time, 2^53 + 2 summed first), bucket edges included
        values += (2.0 ** 53, 1.0, 1.0, 2.0 ** 40, 2.0 ** 40 + 1, 0.5, 2.0)
        loop = Histogram()
        for v in values:
            loop.observe(v)
        want = (loop.count, loop.total.hex(), loop.buckets, loop.min_value, loop.max_value)
        for split in range(len(values) + 1):
            batched = Histogram()
            batched.observe_batch(np.array(values[:split]))
            batched.observe_batch(list(values[split:]))
            assert (batched.count, batched.total.hex(), batched.buckets,
                    batched.min_value, batched.max_value) == want, split

    def test_percentile_monotone_and_clamped(self):
        h = Histogram()
        for v in range(1, 1001):
            h.observe(float(v))
        qs = [h.percentile(q) for q in (0.01, 0.25, 0.5, 0.9, 0.99, 1.0)]
        assert qs == sorted(qs)
        assert all(h.min_value <= q <= h.max_value for q in qs)
        # log-bucket estimate is good to within one power of two
        assert h.percentile(0.5) == pytest.approx(500.0, rel=1.0)

    def test_empty_histogram_percentile_is_zero(self):
        # 0.0, not NaN: NaN poisons downstream arithmetic and serialises
        # as null in JSON exports
        h = Histogram()
        assert h.percentile(0.5) == 0.0
        assert h.percentile(1.0) == 0.0

    def test_percentile_rejects_out_of_range_quantile(self):
        h = Histogram()
        h.observe(5.0)
        for bad_q in (0.0, -0.1, 1.0001, 2.0):
            with pytest.raises(ValueError, match="quantile"):
                h.percentile(bad_q)
        # the edges of (0, 1] are legal
        assert h.percentile(1.0) >= h.min_value
        assert h.percentile(1e-9) >= h.min_value

    def test_dict_round_trip(self):
        h = Histogram()
        for v in (2.0, 2.0, 9_999.0):
            h.observe(v)
        h2 = Histogram.from_dict(json.loads(json.dumps(h.to_dict())))
        assert h2.count == h.count
        assert h2.total == h.total
        assert h2.min_value == h.min_value
        assert h2.max_value == h.max_value
        assert h2.buckets == h.buckets


class TestRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc(0, "rack.machine", "cache.hit")
        reg.inc(0, "rack.machine", "cache.hit", 4)
        reg.set_gauge(1, "reliability", "scrub.evacuated", 3)
        reg.observe(0, "core.ipc", "ipc.zero_copy_send_ns", 123.0)
        assert reg.counters.get((0, "rack.machine", "cache.hit"), 0.0) == 5
        assert reg.counters.get((9, "rack.machine", "cache.hit"), 0.0) == 0
        assert reg.gauges[(1, "reliability", "scrub.evacuated")] == 3
        assert reg.histograms[(0, "core.ipc", "ipc.zero_copy_send_ns")].count == 1

    def test_counter_total_sums_across_nodes(self):
        reg = MetricsRegistry()
        reg.inc(0, "rack.machine", "cache.hit", 7)
        reg.inc(1, "rack.machine", "cache.hit", 3)
        reg.inc(1, "rack.machine", "cache.miss", 100)
        assert reg.counter_total("rack.machine", "cache.hit") == 10

    def test_subsystems_and_nodes_sorted(self):
        reg = MetricsRegistry()
        reg.inc(2, "core.fs", "x")
        reg.set_gauge(RACK_WIDE, "reliability", "y", 1)
        reg.observe(0, "core.ipc", "z", 1.0)
        assert reg.subsystems() == ["core.fs", "core.ipc", "reliability"]

    def test_snapshot_round_trip_and_json_stability(self):
        reg = MetricsRegistry()
        reg.inc(1, "a", "c1", 2)
        reg.set_gauge(0, "b", "g1", 7.5)
        reg.observe(0, "a", "h1", 42.0)
        snap = json.loads(json.dumps(reg.snapshot()))
        reg2 = MetricsRegistry.from_snapshot(snap)
        assert json.dumps(reg2.snapshot(), sort_keys=True) == json.dumps(
            snap, sort_keys=True
        )

    def test_delta_digest_same_deltas_same_digest(self):
        reg = MetricsRegistry()
        reg.inc(0, "s", "warmup", 99)  # dirt from "an earlier run"
        base = reg.counter_baseline()
        reg.inc(0, "s", "n", 3)
        reg.observe(0, "s", "h", 10.0)
        d1 = reg.delta_digest(base)

        clean = MetricsRegistry()  # same run against a clean registry
        base2 = clean.counter_baseline()
        clean.inc(0, "s", "n", 3)
        clean.observe(0, "s", "h", 10.0)
        assert clean.delta_digest(base2) == d1

    def test_delta_digest_sensitive_to_counts(self):
        reg = MetricsRegistry()
        base = reg.counter_baseline()
        reg.inc(0, "s", "n")
        d1 = reg.delta_digest(base)
        reg.inc(0, "s", "n")
        assert reg.delta_digest(base) != d1

    def test_delta_digest_ignores_gauges(self):
        reg = MetricsRegistry()
        base = reg.counter_baseline()
        d1 = reg.delta_digest(base)
        reg.set_gauge(0, "s", "g", 123)
        assert reg.delta_digest(base) == d1


def test_rate_helper():
    assert rate(3, 1) == 0.75
    assert rate(0, 0) == 0.0

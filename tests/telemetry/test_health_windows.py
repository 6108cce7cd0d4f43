"""Windowed aggregation: fixed simulated-time windows over the
cumulative registry, with zero clock interaction."""

import json

import pytest

from repro.telemetry.health import WindowAggregator, WindowFrame
from repro.telemetry.registry import RACK_WIDE, Histogram, MetricsRegistry


@pytest.fixture
def reg():
    return MetricsRegistry()


class TestAggregator:
    def test_first_tick_anchors_no_frame(self, reg):
        agg = WindowAggregator(reg, window_ns=1000.0)
        assert agg.tick(150.0) is None

    def test_same_window_ticks_are_free(self, reg):
        agg = WindowAggregator(reg, window_ns=1000.0)
        agg.tick(100.0)
        reg.inc(0, "s", "c", 3)
        assert agg.tick(900.0) is None  # still window 0

    def test_crossing_boundary_closes_delta_frame(self, reg):
        agg = WindowAggregator(reg, window_ns=1000.0)
        agg.tick(100.0)
        reg.inc(0, "s", "c", 3)
        reg.inc(1, "s", "c", 2)
        frame = agg.tick(1100.0)
        assert frame is not None
        assert frame.index == 0 and frame.windows == 1
        assert frame.start_ns == 0.0 and frame.end_ns == 1000.0
        assert frame.counters[(0, "s", "c")] == 3
        assert frame.delta_total("s", "c") == 5
        # next window sees only new increments
        reg.inc(0, "s", "c", 4)
        frame2 = agg.tick(2100.0)
        assert frame2.delta_total("s", "c") == 4

    def test_clock_jump_spans_multiple_windows_and_normalises_rate(self, reg):
        agg = WindowAggregator(reg, window_ns=1000.0)
        agg.tick(0.0)
        reg.inc(0, "s", "c", 10)
        frame = agg.tick(5500.0)  # jumped 5 windows
        assert frame.windows == 5
        assert frame.delta_total("s", "c") == 10
        # the rate a reader normalises: per single window, not per frame
        assert frame.delta_total("s", "c") / frame.windows == pytest.approx(2.0)

    def test_rejects_nonpositive_window(self, reg):
        for bad in (0.0, float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="WindowAggregator.window_ns must be a finite number > 0"):
                WindowAggregator(reg, window_ns=bad)

    def test_aggregation_never_touches_clocks(self):
        from repro.bench import build_rig
        from repro import telemetry

        telemetry.reset()
        telemetry.enable()
        try:
            rig = build_rig()
            agg = WindowAggregator(telemetry.TELEMETRY.registry, window_ns=500.0)
            rig.c0.advance(10_000.0)
            before = {n: rig.machine.now(n) for n in rig.machine.nodes}
            for i in range(20):
                agg.tick(rig.machine.max_time() + i * 500.0)
            after = {n: rig.machine.now(n) for n in rig.machine.nodes}
            assert before == after  # 0 simulated ns: pure observation
        finally:
            telemetry.disable()
            telemetry.reset()


class TestWindowHist:
    """Histograms are not windowed: a frame carries counter deltas and
    gauges only, and a latency distribution is read off the registry's
    own histogram, whose exact sample bounds clamp its quantiles."""

    def _hist(self, values):
        reg = MetricsRegistry()
        agg = WindowAggregator(reg, window_ns=1000.0)
        agg.tick(0.0)
        for v in values:
            reg.observe(0, "s", "lat", v)
        frame = agg.tick(1000.0)
        assert not hasattr(frame, "hists") and "hists" not in frame.to_dict()
        return reg.histograms[(0, "s", "lat")]

    def test_percentile_validates_quantile(self):
        h = self._hist([4.0])
        for bad in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError, match="quantile"):
                h.percentile(bad)

    def test_percentile_empty_is_zero(self):
        assert Histogram().percentile(0.99) == 0.0
        # one sample's quantile is the sample, not its bucket's midpoint
        assert self._hist([300.0]).percentile(0.5) == 300.0

    def test_list_round_trip(self):
        reg = MetricsRegistry()
        for v in (2.0, 300.0, 300.0):
            reg.observe(0, "s", "lat", v)
        row = json.loads(json.dumps(reg.snapshot()))["histograms"][0]
        assert row == [0, "s", "lat", {"count": 3, "sum": 602.0, "min": 2.0,
                                       "max": 300.0, "buckets": {"1": 1, "9": 2}}]
        again = MetricsRegistry.from_snapshot({"counters": [], "gauges": [], "histograms": [row]})
        assert again.histograms[(0, "s", "lat")] == reg.histograms[(0, "s", "lat")]


class TestFrameRoundTrip:
    def test_dict_round_trip_preserves_everything(self, reg):
        agg = WindowAggregator(reg, window_ns=1000.0)
        agg.tick(0.0)
        reg.inc(0, "s", "c", 3)
        reg.inc(RACK_WIDE, "s", "c", 1)
        reg.set_gauge(1, "s", "g", 7.5)
        frame = agg.tick(1500.0)
        frame2 = WindowFrame.from_dict(json.loads(json.dumps(frame.to_dict())))
        assert frame2.index == frame.index
        assert frame2.counters == frame.counters
        assert frame2.gauges == frame.gauges
        assert frame2.to_dict() == frame.to_dict()

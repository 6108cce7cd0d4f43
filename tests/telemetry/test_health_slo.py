"""SLO engine: objective validation, burn-rate fire/resolve lifecycle,
and deterministic alert identity."""

import pytest

from repro.telemetry.health import (
    Objective,
    SLOEngine,
    WindowAggregator,
    alert_id,
)
from repro.telemetry.registry import RACK_WIDE, MetricsRegistry

_REL = "reliability"


def _frames(increments, window_ns=1000.0, subsystem=_REL, name="fault.ue", node=0):
    """Drive an aggregator through one window per increment; yield frames."""
    reg = MetricsRegistry()
    agg = WindowAggregator(reg, window_ns=window_ns)
    agg.tick(0.0)
    for i, delta in enumerate(increments):
        if delta:
            reg.inc(node, subsystem, name, delta)
        frame = agg.tick((i + 1) * window_ns + 1.0)
        assert frame is not None
        yield frame


class TestObjectiveValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown objective kind"):
            Objective(name="x", kind="vibes", subsystem="s", metric="m")

    def test_ratio_needs_counters(self):
        with pytest.raises(ValueError, match="good and bad"):
            Objective(name="x", kind="ratio", subsystem="s")

    def test_rate_needs_positive_budget(self):
        with pytest.raises(ValueError, match="budget_per_window"):
            Objective(
                name="x", kind="rate", subsystem="s", metric="m", budget_per_window=0.0
            )

    @pytest.mark.parametrize("field, bad", [
        ("budget_per_window", float("nan")),
        ("budget_per_window", float("inf")),
        ("budget_per_window", -1.0),
        ("fast_burn", float("nan")),
        ("fast_burn", 0.0),
        ("fast_burn", -2.0),
        ("slow_burn", float("nan")),
        ("slow_burn", -1.0),
        ("slow_burn", float("inf")),
        ("fast_windows", 0),
        ("fast_windows", -1),
        ("fast_windows", 1.5),
        ("fast_windows", True),
        ("slow_windows", 0),
        ("slow_windows", -3),
        ("slow_windows", 2.0),
    ])
    def test_hostile_burn_settings_refused_by_name(self, field, bad):
        """A NaN burn never pages, a zero window count never pages, a
        negative window count breaks the first evaluate and a negative burn
        pages on a quiet window: each is refused when the objective is built."""
        with pytest.raises(ValueError, match=f"Objective.{field} must be"):
            Objective(name="x", kind="rate", subsystem="s", metric="m", **{field: bad})

    def test_duplicate_objective_names_rejected(self):
        obj = Objective(name="x", kind="rate", subsystem="s", metric="m")
        with pytest.raises(ValueError, match="duplicate"):
            SLOEngine((obj, obj))


class TestAlertIdentity:
    def test_deterministic_and_scoped(self):
        assert alert_id("ue.rate", RACK_WIDE, 7) == alert_id("ue.rate", RACK_WIDE, 7)
        assert alert_id("ue.rate", RACK_WIDE, 7) != alert_id("ue.rate", 0, 7)
        assert alert_id("ue.rate", RACK_WIDE, 7) != alert_id("ue.rate", RACK_WIDE, 8)
        assert len(alert_id("a", -1, 0)) == 12


class TestBurnRateLifecycle:
    def _engine(self):
        return SLOEngine((
            Objective(
                name="ue.rate", kind="rate", subsystem=_REL, metric="fault.ue",
                budget_per_window=0.5, fast_windows=1, slow_windows=4,
                fast_burn=4.0, slow_burn=1.5,
            ),
        ))

    def test_fires_on_burst_resolves_when_calm(self):
        slo = self._engine()
        transitions = []
        for frame in _frames([0, 4, 0, 0, 0, 0, 0]):
            transitions.extend(slo.evaluate(frame))
        states = [(a.objective, a.scope, a.state) for a in transitions]
        # one alert per scope (node0 + rack), each fired then resolved
        assert ("ue.rate", "rack", "resolved") in states
        assert ("ue.rate", "node0", "resolved") in states
        assert {a.objective for a in slo.alerts} == {"ue.rate"}
        assert not slo.active  # every alert that fired has resolved

    def test_slow_window_guards_against_single_blip(self):
        slo = self._engine()
        fired = []
        # 2 UEs in one window: fast burn = 4.0 (at threshold) but the
        # 4-window slow average stays below 1.5 -> no page
        for frame in _frames([0, 0, 0, 2, 0, 0]):
            fired.extend(a for a in slo.evaluate(frame) if a.state == "firing")
        assert fired == []

    def test_alert_stays_firing_until_both_burns_drop(self):
        slo = self._engine()
        it = _frames([4, 4, 4, 0, 0, 0, 0, 0, 0])
        history = []
        for frame in it:
            for a in slo.evaluate(frame):
                history.append((frame.index, a.state))
        fire_idx = next(i for i, s in history if s == "firing")
        resolve_idx = next(i for i, s in history if s == "resolved")
        assert resolve_idx > fire_idx + 1  # slow window keeps it open a while

    def test_same_input_same_alert_ids(self):
        runs = []
        for _ in range(2):
            slo = self._engine()
            ids = []
            for frame in _frames([0, 4, 0, 0, 0, 0]):
                ids.extend(a.alert_id for a in slo.evaluate(frame))
            runs.append(ids)
        assert runs[0] == runs[1] and runs[0]


class TestRatioObjective:
    def test_hit_ratio_collapse_fires(self):
        slo = SLOEngine((
            Objective(
                name="cache.hit_ratio", kind="ratio", subsystem="m",
                good="hit", bad="miss", target=0.90,
                fast_windows=1, slow_windows=2, fast_burn=5.0, slow_burn=2.5,
            ),
        ))
        reg = MetricsRegistry()
        agg = WindowAggregator(reg, window_ns=1000.0)
        agg.tick(0.0)
        fired = []
        for i in range(4):
            # every window: 50% miss rate = 5x the 10% budget
            reg.inc(0, "m", "hit", 10)
            reg.inc(0, "m", "miss", 10)
            frame = agg.tick((i + 1) * 1000.0 + 1.0)
            fired.extend(a for a in slo.evaluate(frame) if a.state == "firing")
        assert any(a.scope == "rack" for a in fired)
        assert any(a.scope == "node0" for a in fired)

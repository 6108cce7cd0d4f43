"""Span tracing unit tests: nesting, Chrome trace export, schema
validation, and the flamegraph summary."""

import json

import pytest

from repro import telemetry
from repro.bench import build_rig
from repro.telemetry import TraceBuffer, span, validate_chrome_trace


class TestTraceBuffer:
    def test_nesting_links_parents(self):
        buf = TraceBuffer()
        a = buf.begin("outer", 0, 0.0)
        b = buf.begin("inner", 0, 10.0)
        buf.end(b, 20.0)
        buf.end(a, 30.0)
        assert b.parent_id == a.span_id
        assert a.parent_id is None
        assert [s.name for s in buf.spans] == ["inner", "outer"]
        assert a.duration_ns == 30.0
        assert b.duration_ns == 10.0

    def test_forgotten_children_closed_on_parent_end(self):
        buf = TraceBuffer()
        a = buf.begin("outer", 0, 0.0)
        buf.begin("leaked", 0, 5.0)
        buf.end(a, 50.0)
        assert len(buf._stack) == 0
        leaked = next(s for s in buf.spans if s.name == "leaked")
        assert leaked.end_ns == 50.0

    def test_clear_resets_ids(self):
        buf = TraceBuffer()
        s1 = buf.begin("x", 0, 0.0)
        buf.end(s1, 1.0)
        buf.clear()
        s2 = buf.begin("x", 0, 0.0)
        assert s2.span_id == 1

    def test_end_never_goes_backwards(self):
        buf = TraceBuffer()
        s = buf.begin("x", 0, 100.0)
        buf.end(s, 90.0)  # clock never rewinds, but be safe
        assert s.end_ns == 100.0


class TestChromeTrace:
    def _sample(self):
        buf = TraceBuffer()
        a = buf.begin("chaos.step", 0, 1000.0, step=3)
        b = buf.begin("reliability.repair", 0, 1500.0)
        buf.end(b, 2500.0)
        buf.end(a, 3000.0)
        c = buf.begin("rack.sweep", -1, 0.0)
        buf.end(c, 100.0)
        return buf

    def test_export_is_valid_and_json_serializable(self):
        trace = self._sample().to_chrome_trace()
        n = validate_chrome_trace(json.loads(json.dumps(trace)))
        # 2 metadata (node0 + rack) + 3 complete events
        assert n == 5
        assert trace["displayTimeUnit"] == "ns"

    def test_ns_to_us_conversion(self):
        trace = self._sample().to_chrome_trace()
        ev = next(e for e in trace["traceEvents"] if e["name"] == "chaos.step")
        assert ev["ts"] == pytest.approx(1.0)  # 1000 ns -> 1 us
        assert ev["dur"] == pytest.approx(2.0)

    def test_causal_tree_shares_a_tid_and_args_link_parents(self):
        trace = self._sample().to_chrome_trace()
        by_name = {e["name"]: e for e in trace["traceEvents"] if e["ph"] == "X"}
        step, repair = by_name["chaos.step"], by_name["reliability.repair"]
        assert step["tid"] == repair["tid"]
        assert repair["args"]["parent_id"] == step["args"]["span_id"]
        assert step["args"]["step"] == 3

    def test_rack_wide_spans_map_to_pid_zero(self):
        trace = self._sample().to_chrome_trace()
        sweep = next(e for e in trace["traceEvents"] if e["name"] == "rack.sweep")
        assert sweep["pid"] == 0

    def test_validator_rejects_bad_traces(self):
        with pytest.raises(ValueError, match="must be a list"):
            validate_chrome_trace({"traceEvents": "nope"})
        with pytest.raises(ValueError, match="known phase"):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "Z", "pid": 0, "tid": 0, "ts": 0}]}
            )
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 0}]}
            )
        with pytest.raises(ValueError, match="name"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "M", "pid": 0, "tid": 0}]}
            )


class TestFlameSummary:
    def test_folded_paths_aggregate(self):
        buf = TraceBuffer()
        for _ in range(3):
            a = buf.begin("step", 0, 0.0)
            b = buf.begin("repair", 0, 10.0)
            buf.end(b, 30.0)
            buf.end(a, 40.0)
        out = buf.flame_summary()
        assert "step;repair" in out
        assert "step" in out.splitlines()[1]  # hottest path leads

    def test_empty_buffer(self):
        assert "(no spans" in TraceBuffer().flame_summary()


class TestSpanContextManager:
    def test_noop_when_tracing_off(self):
        telemetry.enable()  # metrics only
        with span("fs.read", node=0) as s:
            assert s is None
        assert not telemetry.TELEMETRY.trace.spans

    def test_ctx_stamps_simulated_clock(self):
        telemetry.enable(tracing=True)
        rig = build_rig()
        ctx = rig.c0
        t0 = ctx.now()
        with span("fs.read", ctx=ctx, file=7) as s:
            ctx.load(rig.machine.global_base, 8)
        assert s.node == 0
        assert s.start_ns == t0
        assert s.end_ns == ctx.now()
        assert s.duration_ns > 0
        assert dict(s.args)["file"] == 7

    def test_exception_still_closes_span(self):
        telemetry.enable(tracing=True)
        with pytest.raises(RuntimeError):
            with span("boom", node=1):
                raise RuntimeError("x")
        assert len(telemetry.TELEMETRY.trace._stack) == 0
        assert telemetry.TELEMETRY.trace.spans[-1].name == "boom"

    def test_deterministic_trace_across_identical_runs(self):
        def one_run():
            telemetry.reset()
            telemetry.enable(tracing=True)
            rig = build_rig()
            ctx = rig.c0
            with span("outer", ctx=ctx):
                ctx.load(rig.machine.global_base, 8)
                with span("inner", ctx=ctx):
                    ctx.store(rig.machine.global_base, b"\x01" * 8)
            out = json.dumps(telemetry.TELEMETRY.trace.to_chrome_trace(), sort_keys=True)
            telemetry.disable()
            return out

        assert one_run() == one_run()

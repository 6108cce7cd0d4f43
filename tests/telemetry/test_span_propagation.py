"""Span-context propagation through the resilient request path: a span's
parent is the top of the open-span stack, so every attempt chains to the
batch that made it, and tracing moves no simulated time.
"""

import pytest

from repro import telemetry
from repro.bench.harness import build_rig
from repro.telemetry import TELEMETRY, TraceBuffer
from repro.workloads import TenantSpec
from repro.workloads.resilience import ResilienceSpec, ResilientTrafficEngine

pytestmark = pytest.mark.telemetry


class TestTraceBuffer:
    def test_stack_parent_is_the_default(self):
        buf = TraceBuffer()
        a = buf.begin("outer", 0, 0.0)
        b = buf.begin("inner", 0, 1.0)
        buf.end(b, 2.0)
        buf.end(a, 3.0)
        assert b.parent_id == a.span_id

    def test_annotate_merges_and_overwrites(self):
        buf = TraceBuffer()
        s = buf.begin("op", 0, 0.0, outcome="failed", n=4)
        buf.annotate(s, outcome="ok")
        buf.end(s, 1.0)
        assert dict(s.args) == {"outcome": "ok", "n": 4}

    def test_critical_path_picks_heaviest_chain(self):
        buf = TraceBuffer()
        a = buf.begin("root", 0, 0.0)
        light = buf.begin("light", 0, 0.0)
        buf.end(light, 10.0)
        heavy = buf.begin("heavy", 0, 10.0)
        leaf = buf.begin("leaf", 0, 10.0)
        buf.end(leaf, 90.0)
        buf.end(heavy, 100.0)
        buf.end(a, 100.0)
        path = [s.name for s in buf.critical_path()]
        assert path == ["root", "heavy", "leaf"]
        summary = buf.critical_path_summary()
        assert summary.startswith("critical path: 3 spans")
        assert "heavy" in summary and "light" not in summary


def _overloaded_run(tracing=False):
    rig = build_rig(n_nodes=2)
    tenants = [TenantSpec(name="web", rate_rps=5e6, node=0, n_keys=256,
                          max_backlog_ns=1e9)]
    if tracing:
        telemetry.enable(tracing=True)
    eng = ResilientTrafficEngine(rig.kernel, tenants,
                                 resilience=ResilienceSpec(replica_node=1), seed=11)
    return eng.run(max_requests=30_000)


class TestRequestPathSpans:
    def test_attempt_spans_nest_under_batches(self):
        _overloaded_run(tracing=True)
        spans = TELEMETRY.trace.spans
        by_id = {s.span_id: s for s in spans}
        attempts = [s for s in spans if s.name == "traffic.attempt"]
        assert attempts
        assert all(by_id[s.parent_id].name == "traffic.batch" for s in attempts)

    def test_tracing_adds_zero_simulated_time(self):
        plain = _overloaded_run(tracing=False)
        telemetry.reset()
        telemetry.disable()
        traced = _overloaded_run(tracing=True)
        assert plain.digest() == traced.digest()

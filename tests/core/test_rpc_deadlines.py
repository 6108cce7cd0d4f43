"""RPC deadlines: propagation, fail-fast rejects, charged timeouts,
and clock-charged retries."""

import pytest

from repro.core.backoff import BackoffPolicy
from repro.core.ipc import (
    IpcSystem,
    NameRegistry,
    RpcDeadlineExceeded,
    RpcSystem,
    RpcTimeout,
)
from repro.flacdk.sync import OperationLog


@pytest.fixture
def rpc_rig(rack2):
    machine, c0, c1, arena = rack2
    log = OperationLog(arena.take(OperationLog.region_size(256)), 256).format(c0)
    registry = NameRegistry(log)
    ipc = IpcSystem(machine, arena, registry)
    rpc = RpcSystem(machine, registry, ipc.buffers)
    return machine, c0, c1, rpc


def _echo(ctx, payload):
    return payload


def _slow(ctx, ns):
    ctx.advance(ns)
    return b"done"


# module-level state so the handlers stay picklable (shared code
# contexts are pickled into global memory)
_NESTED = {}
_FLAKY = {"failures_left": 0}


def _probe_inherited(ctx):
    return _NESTED["rpc"].current_deadline()


def _flaky(ctx):
    if _FLAKY["failures_left"] > 0:
        _FLAKY["failures_left"] -= 1
        raise RuntimeError("transient")
    return b"ok"


class TestDeadlines:
    def test_no_deadline_is_the_default(self, rpc_rig):
        _, c0, c1, rpc = rpc_rig
        rpc.register(c1, "echo", _echo)
        assert rpc.call(c0, "echo", b"x") == b"x"
        assert rpc.stats.timeouts == 0
        assert rpc.stats.deadline_rejects == 0

    def test_expired_deadline_fails_fast_uncharged(self, rpc_rig):
        _, c0, c1, rpc = rpc_rig
        rpc.register(c1, "echo", _echo)
        c0.advance(10_000.0)
        before = c0.now()
        with pytest.raises(RpcDeadlineExceeded) as ei:
            rpc.call(c0, "echo", b"x", deadline_ns=5_000.0)
        assert c0.now() == before  # nothing charged
        assert rpc.stats.deadline_rejects == 1
        assert ei.value.deadline_ns == 5_000.0

    def test_overrun_is_a_charged_timeout(self, rpc_rig):
        _, c0, c1, rpc = rpc_rig
        rpc.register(c1, "slow", _slow)
        deadline = c0.now() + 5_000.0
        before = c0.now()
        with pytest.raises(RpcTimeout) as ei:
            rpc.call(c0, "slow", 50_000.0, deadline_ns=deadline)
        # migration RPC ran on the caller's core: the time is spent
        assert c0.now() - before >= 50_000.0
        assert ei.value.now_ns > ei.value.deadline_ns
        assert rpc.stats.timeouts == 1

    def test_deadline_propagates_to_nested_calls(self, rpc_rig):
        _, c0, c1, rpc = rpc_rig
        _NESTED["rpc"] = rpc
        rpc.register(c1, "probe", _probe_inherited)
        deadline = c0.now() + 1e9
        assert rpc.call(c0, "probe", deadline_ns=deadline) == deadline
        assert rpc.current_deadline() is None  # popped on exit

    def test_inner_deadline_cannot_loosen_outer(self, rpc_rig):
        _, c0, c1, rpc = rpc_rig
        tight = c0.now() + 100.0
        rpc._deadline_stack.append(tight)
        try:
            assert rpc._effective_deadline(tight + 1e6) == tight
            assert rpc._effective_deadline(tight - 50.0) == tight - 50.0
        finally:
            rpc._deadline_stack.pop()


class TestCallWithRetry:
    def test_succeeds_after_transient_failures(self, rpc_rig):
        _, c0, c1, rpc = rpc_rig
        rpc.register(c1, "flaky", _flaky)
        _FLAKY["failures_left"] = 2
        policy = BackoffPolicy(base_ns=1_000.0, multiplier=2.0, max_attempts=4)
        before = c0.now()
        result = rpc.call_with_retry(
            c0, "flaky", backoff=policy, retry_on=(RuntimeError,)
        )
        assert result == b"ok"
        assert rpc.stats.retries == 2
        # both backoff delays were charged to the caller's clock
        assert c0.now() - before >= policy.delay_ns(0) + policy.delay_ns(1)

    def test_exhausts_attempts_then_propagates(self, rpc_rig):
        _, c0, c1, rpc = rpc_rig
        rpc.register(c1, "flaky", _flaky)
        _FLAKY["failures_left"] = 100
        policy = BackoffPolicy(base_ns=10.0, multiplier=2.0, max_attempts=2)
        with pytest.raises(RuntimeError):
            rpc.call_with_retry(c0, "flaky", backoff=policy, retry_on=(RuntimeError,))
        assert rpc.stats.retries == 2  # max_attempts retries, then give up

    def test_deadline_guard_stops_retries(self, rpc_rig):
        _, c0, c1, rpc = rpc_rig
        rpc.register(c1, "slow", _slow)
        policy = BackoffPolicy(base_ns=10.0, multiplier=2.0, max_attempts=5)
        with pytest.raises(RpcTimeout):
            rpc.call_with_retry(
                c0, "slow", 1_000.0, backoff=policy, deadline_ns=c0.now() + 500.0
            )
        # the first overrun burned the whole budget: no retry attempted
        assert rpc.stats.calls == 1
        assert rpc.stats.retries == 0
        assert rpc.stats.timeouts == 1

"""Tests for the synchronisation layer: oplog, spinlock, replication,
delegation, and RCU/quiescence."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flacdk.sync import (
    DelegationError,
    DelegationService,
    GlobalSpinLock,
    LockTimeoutError,
    LogFullError,
    NodeReplication,
    OperationLog,
    RcuCell,
)
from repro.flacdk.arena import Arena
from repro.flacdk.sync import spinlock
from repro.rack import RackConfig, RackMachine


@pytest.fixture
def log(rig):
    _, ctxs, arena = rig
    base = arena.take(OperationLog.region_size(128))
    return OperationLog(base, 128).format(ctxs[0])


class TestOperationLog:
    def test_append_read_round_trip(self, rig, log):
        _, ctxs, _ = rig
        idx = log.append(ctxs[0], b"op-one")
        assert log.read(ctxs[1], idx) == b"op-one"

    def test_indices_are_sequential_across_nodes(self, rig, log):
        _, ctxs, _ = rig
        assert [log.append(ctxs[i % 4], b"x") for i in range(6)] == list(range(6))

    def test_unwritten_entry_reads_none(self, rig, log):
        _, ctxs, _ = rig
        assert log.read(ctxs[0], 5) is None

    def test_read_from_stops_at_gap(self, rig, log):
        _, ctxs, _ = rig
        for i in range(3):
            log.append(ctxs[0], bytes([i]))
        entries = list(log.read_from(ctxs[1], 0))
        assert [idx for idx, _ in entries] == [0, 1, 2]
        assert [payload for _, payload in entries] == [b"\x00", b"\x01", b"\x02"]

    def test_consumer_clock_ordered_after_producer(self, rig, log):
        _, ctxs, _ = rig
        ctxs[0].advance(1e6)
        idx = log.append(ctxs[0], b"late")
        log.read(ctxs[1], idx)
        assert ctxs[1].now() >= 1e6

    def test_oversized_payload_rejected(self, rig, log):
        _, ctxs, _ = rig
        with pytest.raises(Exception):
            log.append(ctxs[0], b"z" * 1000)

    def test_full_log_raises(self, rig):
        _, ctxs, arena = rig
        small = OperationLog(arena.take(OperationLog.region_size(2)), 2).format(ctxs[0])
        small.append(ctxs[0], b"1")
        small.append(ctxs[0], b"2")
        with pytest.raises(LogFullError):
            small.append(ctxs[0], b"3")

    def test_reset_empties(self, rig, log):
        _, ctxs, _ = rig
        log.append(ctxs[0], b"gone")
        log.reset(ctxs[0])
        assert log.reserved(ctxs[1]) == 0
        assert log.read(ctxs[1], 0) is None


class TestGlobalSpinLock:
    @pytest.fixture
    def lock(self, rig):
        _, ctxs, arena = rig
        return GlobalSpinLock(arena.take(8, align=8)).format(ctxs[0])

    def test_mutual_exclusion(self, rig, lock):
        _, ctxs, _ = rig
        assert lock.try_acquire(ctxs[0])
        assert not lock.try_acquire(ctxs[1])
        lock.release(ctxs[0])
        assert lock.try_acquire(ctxs[1])

    def test_release_by_non_holder_rejected(self, rig, lock):
        _, ctxs, _ = rig
        lock.acquire(ctxs[0])
        with pytest.raises(RuntimeError):
            lock.release(ctxs[1])

    def test_acquire_times_out_in_simulator(self, rig, lock, monkeypatch):
        monkeypatch.setattr(spinlock, "MAX_SPINS", 5)
        _, ctxs, _ = rig
        lock.acquire(ctxs[0])
        with pytest.raises(LockTimeoutError):
            lock.acquire(ctxs[1])

    def test_backoff_charges_time(self, rig, lock, monkeypatch):
        monkeypatch.setattr(spinlock, "MAX_SPINS", 5)
        _, ctxs, _ = rig
        lock.acquire(ctxs[0])
        before = ctxs[1].now()
        with pytest.raises(LockTimeoutError):
            lock.acquire(ctxs[1])
        assert ctxs[1].now() > before

    def test_force_release_breaks_dead_holders_lock(self, rig, lock):
        machine, ctxs, _ = rig
        lock.acquire(ctxs[0])
        machine.crash_node(0)
        lock.force_release(ctxs[1])
        assert lock.try_acquire(ctxs[1])

    def test_context_manager(self, rig, lock):
        _, ctxs, _ = rig
        with lock.held(ctxs[2]):
            assert lock.holder_tag(ctxs[0]) == 3
        assert lock.holder_tag(ctxs[0]) == 0


def _counter_nr(log):
    return NodeReplication(log, factory=lambda: [0], apply_fn=_apply_counter)


def _apply_counter(state, op):
    if op[0] == "add":
        state[0] += op[1]
        return state[0]
    raise ValueError(op)


class TestNodeReplication:
    def test_mutation_visible_on_all_replicas(self, rig, log):
        _, ctxs, _ = rig
        nr = _counter_nr(log)
        nr.replica(ctxs[0]).execute(ctxs[0], ("add", 5))
        assert nr.replica(ctxs[3]).read(ctxs[3], lambda s: s[0]) == 5

    def test_execute_returns_linearized_result(self, rig, log):
        _, ctxs, _ = rig
        nr = _counter_nr(log)
        assert nr.replica(ctxs[0]).execute(ctxs[0], ("add", 5)) == 5
        assert nr.replica(ctxs[1]).execute(ctxs[1], ("add", 3)) == 8
        assert nr.replica(ctxs[0]).execute(ctxs[0], ("add", 1)) == 9

    def test_local_read_can_be_stale_until_synced(self, rig, log):
        _, ctxs, _ = rig
        nr = _counter_nr(log)
        rep1 = nr.replica(ctxs[1])
        rep1.read(ctxs[1], lambda s: s[0])  # instantiate at 0
        nr.replica(ctxs[0]).execute(ctxs[0], ("add", 7))
        assert rep1.read_local(lambda s: s[0]) == 0  # stale, zero traffic
        assert rep1.read(ctxs[1], lambda s: s[0]) == 7  # synced

    def test_interleaved_mutations_converge(self, rig, log):
        _, ctxs, _ = rig
        nr = _counter_nr(log)
        for i in range(12):
            nr.replica(ctxs[i % 4]).execute(ctxs[i % 4], ("add", 1))
        values = {nr.replica(c).read(c, lambda s: s[0]) for c in ctxs}
        assert values == {12}

    def test_compact_requires_all_caught_up(self, rig, log):
        _, ctxs, _ = rig
        nr = _counter_nr(log)
        nr.replica(ctxs[0]).execute(ctxs[0], ("add", 1))
        nr.replica(ctxs[1])  # exists but never replayed
        assert not nr.compact(ctxs[0])
        nr.replica(ctxs[1]).read(ctxs[1], lambda s: s[0])
        assert nr.compact(ctxs[0])
        assert log.reserved(ctxs[0]) == 0

    def test_state_survives_compaction(self, rig, log):
        _, ctxs, _ = rig
        nr = _counter_nr(log)
        nr.replica(ctxs[0]).execute(ctxs[0], ("add", 4))
        nr.replica(ctxs[1]).read(ctxs[1], lambda s: s[0])
        nr.compact(ctxs[0])
        nr.replica(ctxs[1]).execute(ctxs[1], ("add", 1))
        assert nr.replica(ctxs[0]).read(ctxs[0], lambda s: s[0]) == 5


_dict_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "del"]),
        st.binary(min_size=1, max_size=12),
        st.binary(max_size=24),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=30,
)


def _four_nodes():
    machine = RackMachine(RackConfig(n_nodes=4, topology="single_switch", global_mem_size=1 << 24))
    return [machine.context(i) for i in range(4)], Arena(machine.global_base, machine.global_size)


def _apply_dict(state, op):
    if op[0] == "put":
        state[op[1]] = op[2]
        return None
    return state.pop(op[1], None) is not None


@settings(max_examples=25, deadline=None)
@given(ops=_dict_ops)
def test_replicated_dict_matches_model_across_nodes(ops):
    """Every node's linearisable read sees every node's earlier writes."""
    ctxs, arena = _four_nodes()
    log = OperationLog(arena.take(OperationLog.region_size(64)), 64).format(ctxs[0])
    nr = NodeReplication(log, factory=dict, apply_fn=_apply_dict)
    model = {}
    for verb, key, value, node in ops:
        ctx = ctxs[node]
        if verb == "put":
            nr.replica(ctx).execute(ctx, ("put", key, value))
            model[key] = value
        elif verb == "get":
            assert nr.replica(ctx).read(ctx, lambda s: s.get(key)) == model.get(key)
        else:
            assert nr.replica(ctx).execute(ctx, ("del", key)) == (key in model)
            model.pop(key, None)
    for key, value in model.items():
        for ctx in ctxs:
            assert nr.replica(ctx).read(ctx, lambda s: s.get(key)) == value


@settings(max_examples=20, deadline=None)
@given(ops=_dict_ops)
def test_delegated_dict_matches_model_across_nodes(ops):
    """A dict partitioned over two owners (nodes 0 and 2), each partition
    reached through its owner's mailboxes from all four nodes."""
    ctxs, arena = _four_nodes()
    parts = [{}, {}]

    def handler(part):
        def serve(request):
            verb, key, value = pickle.loads(request)
            if verb == "put":
                part[key] = value
                return pickle.dumps(None)
            if verb == "get":
                return pickle.dumps(part.get(key))
            return pickle.dumps(part.pop(key, None) is not None)

        return serve

    services = [
        DelegationService(arena.take(DelegationService.region_size(4)), owner, 4, handler(part)).format(ctxs[0])
        for owner, part in zip((0, 2), parts)
    ]

    def call(ctx, verb, key, value=b""):
        svc = services[key[0] % 2]
        return pickle.loads(svc.call(ctx, ctxs[svc.owner_node], pickle.dumps((verb, key, value))))

    model = {}
    for verb, key, value, node in ops:
        ctx = ctxs[node]
        if verb == "put":
            call(ctx, "put", key, value)
            model[key] = value
        elif verb == "get":
            assert call(ctx, "get", key) == model.get(key)
        else:
            assert call(ctx, "del", key) == (key in model)
            model.pop(key, None)
    for key, value in model.items():
        assert call(ctxs[1], "get", key) == value
    assert sorted(parts[0].items() | parts[1].items()) == sorted(model.items())


class TestDelegation:
    @pytest.fixture
    def service(self, rig):
        _, ctxs, arena = rig
        base = arena.take(DelegationService.region_size(4))
        return DelegationService(
            base, owner_node=0, n_nodes=4, handler=lambda req: req[::-1]
        ).format(ctxs[0])

    def test_round_trip(self, rig, service):
        _, ctxs, _ = rig
        assert service.call(ctxs[2], ctxs[0], b"abc") == b"cba"

    def test_response_not_ready_before_poll(self, rig, service):
        _, ctxs, _ = rig
        seq = service.submit(ctxs[1], b"req")
        assert service.try_response(ctxs[1], seq) is None
        service.poll(ctxs[0])
        assert service.try_response(ctxs[1], seq) == b"qer"

    def test_one_outstanding_request_per_client(self, rig, service):
        _, ctxs, _ = rig
        service.submit(ctxs[1], b"first")
        with pytest.raises(DelegationError):
            service.submit(ctxs[1], b"second")

    def test_multiple_clients_served_in_one_poll(self, rig, service):
        _, ctxs, _ = rig
        seqs = {n: service.submit(ctxs[n], bytes([n])) for n in (1, 2, 3)}
        assert service.poll(ctxs[0]) == 3
        for n, seq in seqs.items():
            assert service.try_response(ctxs[n], seq) == bytes([n])

    def test_owner_only_polling(self, rig, service):
        _, ctxs, _ = rig
        with pytest.raises(DelegationError):
            service.poll(ctxs[1])

    def test_clock_causality_through_round_trip(self, rig, service):
        _, ctxs, _ = rig
        ctxs[3].advance(5e5)
        service.call(ctxs[3], ctxs[0], b"x")
        assert ctxs[0].now() >= 5e5  # owner saw the late request
        assert ctxs[3].now() >= ctxs[0].now() - 1  # client saw the response


class TestRcu:
    def test_publish_read_across_nodes(self, rig, heap, reclaimer):
        _, ctxs, arena = rig
        cell = RcuCell(arena.take(8, align=8), heap, reclaimer).format(ctxs[0])
        assert cell.read(ctxs[1]) is None
        cell.publish(ctxs[0], b"v1")
        assert cell.read(ctxs[1]) == b"v1"
        cell.publish(ctxs[2], b"v2")
        assert cell.read(ctxs[3]) == b"v2"

    def test_old_version_freed_only_after_quiescence(self, rig, heap, reclaimer):
        _, ctxs, arena = rig
        cell = RcuCell(arena.take(8, align=8), heap, reclaimer).format(ctxs[0])
        cell.publish(ctxs[0], b"old")
        reclaimer.enter(ctxs[1])
        cell.publish(ctxs[0], b"new")
        reclaimer.advance(ctxs[0])
        assert reclaimer.reclaim(ctxs[0]) == 0  # reader still inside
        reclaimer.exit(ctxs[1])
        reclaimer.advance(ctxs[0])
        assert reclaimer.reclaim(ctxs[0]) == 1

    def test_update_applies_function_to_current(self, rig, heap, reclaimer):
        _, ctxs, arena = rig
        cell = RcuCell(arena.take(8, align=8), heap, reclaimer).format(ctxs[0])
        cell.publish(ctxs[0], b"ab")
        result = cell.update(ctxs[1], lambda cur: cur + b"c")
        assert result == b"abc"
        assert cell.read(ctxs[2]) == b"abc"

    def test_update_from_empty(self, rig, heap, reclaimer):
        _, ctxs, arena = rig
        cell = RcuCell(arena.take(8, align=8), heap, reclaimer).format(ctxs[0])
        assert cell.update(ctxs[0], lambda cur: b"init" if cur is None else cur) == b"init"

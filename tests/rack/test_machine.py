"""Integration tests for the rack machine: incoherence, atomics, latency."""

import pytest

from repro.core.params import OsCosts
from repro.net.params import EthernetSpec, RdmaCosts, SerializationCosts, TcpCosts
from repro.rack import (
    FaultInjector,
    FaultModel,
    LatencyModel,
    NodeCrashedError,
    ProtectionError,
    RackConfig,
    RackMachine,
    UncorrectableMemoryError,
)
from repro.rack.machine import SlotWindow

NAN, INF = float("nan"), float("inf")


class TestIncoherence:
    """The substrate must reproduce the paper's hardware contract (§2.1)."""

    def test_remote_store_invisible_without_flush(self, machine):
        g = machine.global_base
        machine.store(0, g, b"secret")
        assert machine.load(1, g, 6) == bytes(6)

    def test_remote_store_invisible_after_flush_if_reader_cached_stale(self, machine):
        g = machine.global_base
        machine.load(1, g, 6)  # node 1 caches the zero line
        machine.store(0, g, b"secret")
        machine.flush(0, g, 6)
        assert machine.load(1, g, 6) == bytes(6)  # still stale!

    def test_visible_after_flush_and_invalidate(self, machine):
        g = machine.global_base
        machine.load(1, g, 6)
        machine.store(0, g, b"secret")
        machine.flush(0, g, 6)
        machine.invalidate(1, g, 6)
        assert machine.load(1, g, 6) == b"secret"

    def test_bypass_store_visible_to_fresh_reader(self, machine):
        g = machine.global_base
        machine.store(0, g, b"direct", bypass_cache=True)
        assert machine.load(1, g, 6) == b"direct"

    def test_own_writes_always_visible(self, machine):
        g = machine.global_base
        machine.store(0, g + 128, b"mine")
        assert machine.load(0, g + 128, 4) == b"mine"


class TestProtection:
    def test_cannot_touch_other_nodes_local_memory(self, machine):
        other_local = machine.local_base(1)
        with pytest.raises(ProtectionError):
            machine.load(0, other_local, 8)
        with pytest.raises(ProtectionError):
            machine.store(0, other_local, b"x")

    def test_own_local_memory_is_fine(self, machine):
        base = machine.local_base(1)
        machine.store(1, base, b"local")
        assert machine.load(1, base, 5) == b"local"

    def test_atomic_on_remote_local_memory_rejected(self, machine):
        with pytest.raises(ProtectionError):
            machine.atomic_fetch_add(0, machine.local_base(1), 1)


class TestAtomics:
    def test_cas_success_and_failure(self, machine):
        g = machine.global_base
        ok, old = machine.atomic_cas(0, g, 0, 7)
        assert ok and old == 0
        ok, old = machine.atomic_cas(1, g, 0, 9)
        assert not ok and old == 7

    def test_fetch_add_accumulates_across_nodes(self, machine):
        g = machine.global_base + 64
        for node in (0, 1, 0, 1):
            machine.atomic_fetch_add(node, g, 5)
        assert machine.atomic_load(0, g) == 20

    def test_fetch_add_wraps_at_width(self, machine):
        g = machine.global_base
        machine.atomic_store(0, g, 2**64 - 1)
        old = machine.atomic_fetch_add(0, g, 1)
        assert old == 2**64 - 1
        assert machine.atomic_load(0, g) == 0

    def test_swap_returns_old(self, machine):
        g = machine.global_base
        machine.atomic_store(0, g, 11)
        assert machine.atomic_swap(1, g, 22) == 11
        assert machine.atomic_load(0, g) == 22

    def test_atomic_invalidates_cached_copy(self, machine):
        g = machine.global_base
        machine.load(0, g, 8)  # cache the zero line
        machine.atomic_store(1, g, 0xAB)
        machine.atomic_fetch_add(0, g, 0)  # atomic from node 0 invalidates its line
        assert machine.load(0, g, 1) == b"\xab"

    def test_misaligned_atomic_rejected(self, machine):
        with pytest.raises(ValueError):
            machine.atomic_load(0, machine.global_base + 3)


class TestLatency:
    def test_global_access_slower_than_local(self):
        m = RackMachine(RackConfig(n_nodes=2))
        local = m.local_base(0)
        g = m.global_base
        m.load(0, local, 8)
        local_cost = m.now(0)
        m2 = RackMachine(RackConfig(n_nodes=2))
        m2.load(0, g, 8)
        assert m2.now(0) > local_cost

    def test_cache_hit_cheaper_than_miss(self, machine):
        g = machine.global_base
        machine.load(0, g, 8)
        miss_cost = machine.now(0)
        machine.load(0, g, 8)
        hit_cost = machine.now(0) - miss_cost
        assert hit_cost < miss_cost / 10

    def test_switched_topology_charges_more(self):
        direct = RackMachine(RackConfig(n_nodes=2, topology="dual_direct"))
        switched = RackMachine(RackConfig(n_nodes=2, topology="single_switch"))
        direct.load(0, direct.global_base, 8)
        switched.load(0, switched.global_base, 8)
        assert switched.now(0) > direct.now(0)

    def test_bulk_transfer_is_pipelined(self, machine):
        g = machine.global_base
        machine.load(0, g, 64)
        one_line = machine.now(0)
        machine.invalidate(0, g, 4096)
        before = machine.now(0)
        machine.load(0, g, 4096)
        bulk = machine.now(0) - before
        assert bulk < 64 * one_line  # far cheaper than 64 independent misses

    @pytest.mark.parametrize("n_lines", [1, 2, 7])
    @pytest.mark.parametrize("topology", ["dual_direct", "single_switch"])
    def test_flush_all_charges_what_flush_charges_on_a_dram_pool(self, n_lines, topology):
        """``flush_all`` prices its write-backs at DRAM-global rates whatever
        the pool (DESIGN.md §3); on a DRAM pool that must be, float for
        float, what ``flush`` charges for the same dirty lines."""
        clocks = []
        for whole in (True, False):
            m = RackMachine(RackConfig(n_nodes=2, topology=topology))
            g = m.global_base + 4096
            m.store(0, g, bytes(range(64)) * n_lines)  # whole lines: dirty, never fetched
            assert (m.flush_all(0) if whole else m.flush(0, g, 64 * n_lines)) == n_lines
            clocks.append(m.now(0))
        assert clocks[0] == clocks[1]

    def test_advance_charges_software_time(self, machine):
        machine.context(0).advance(1000)
        assert machine.now(0) == pytest.approx(1000)

    @pytest.mark.parametrize("ns", [NAN, -1.0])
    def test_advance_refuses_nan_and_negative_time(self, machine, ns):
        for advance in (machine.context(0).advance, machine.nodes[0].clock.advance):
            with pytest.raises(ValueError, match="negative or NaN"):
                advance(ns)  # NaN once set the clock to NaN
        assert machine.now(0) == 0.0

    def test_clocks_are_per_node(self, machine):
        machine.context(0).advance(500)
        assert machine.now(1) == 0


class TestFaultsAndCrashes:
    def test_crashed_node_rejects_operations(self, machine):
        machine.crash_node(0)
        with pytest.raises(NodeCrashedError):
            machine.load(0, machine.global_base, 8)

    def test_crash_loses_unflushed_writes(self, machine):
        g = machine.global_base
        machine.store(0, g, b"doomed")
        machine.crash_node(0)
        assert machine.load(1, g, 6) == bytes(6)
        machine.restart_node(0)
        assert machine.load(0, g, 6) == bytes(6)

    def test_restart_syncs_clock_forward(self, machine):
        machine.context(1).advance(9999)
        machine.crash_node(0)
        machine.restart_node(0)
        assert machine.now(0) >= 9999

    def test_poisoned_memory_raises_on_read(self, machine):
        g = machine.global_base
        machine.faults.inject_ue(machine.global_mem, 0, rack_addr=g)
        with pytest.raises(UncorrectableMemoryError):
            machine.load(0, g, 8)

    def test_bypass_write_repairs_poison(self, machine):
        g = machine.global_base
        machine.faults.inject_ue(machine.global_mem, 0, rack_addr=g, size=64)
        machine.store(0, g, b"\x00" * 64, bypass_cache=True)
        assert machine.load(0, g, 8, bypass_cache=True) == bytes(8)

    def test_severed_link_blocks_global_access(self, machine):
        from repro.rack import InterconnectError

        machine.sever_node_link(0)
        machine.invalidate(0, machine.global_base, 64)
        with pytest.raises(InterconnectError):
            machine.load(0, machine.global_base, 8)
        # node 1 unaffected
        machine.load(1, machine.global_base, 8)

    def test_fault_log_records_crash(self, machine):
        from repro.rack import FaultKind

        machine.crash_node(1)
        events = machine.faults.log.events(FaultKind.NODE_CRASH)
        assert len(events) == 1 and events[0].node_id == 1


class TestConfigValidation:
    def test_bad_line_size_rejected(self):
        for size in (48, 4):  # not a power of two; too small for an 8-byte atomic
            with pytest.raises(ValueError):
                RackConfig(cache_line_size=size)

    def test_needs_a_node(self):
        with pytest.raises(ValueError):
            RackConfig(n_nodes=0)

    @pytest.mark.parametrize("cls, field, value", [
        # a cached hit would move a clock backwards (322.0 -> 321.0)
        (LatencyModel, "cache_hit_ns", -1.0),
        # clocks would silently become NaN
        (LatencyModel, "global_atomic_ns", NAN),
        (LatencyModel, "hop_ns", NAN),
        # refused only at the first charge, as "negative time: -928.0"
        (LatencyModel, "global_base_ns", -1000),
        (LatencyModel, "switch_ns", INF),
        (LatencyModel, "fence_ns", "8"),
        (LatencyModel, "global_bw_bytes_per_ns", 0.0),
        (LatencyModel, "pmem_bw_bytes_per_ns", -8.0),
        (FaultModel, "global_ue_rate", 2.0),
        (FaultModel, "local_ce_rate", -0.1),
        (FaultModel, "line_corruption_ratio", NAN),
        (FaultModel, "per_hop_multiplier", -1.5),
        (FaultModel, "per_hop_multiplier", INF),
        # a bare TypeError from range() before
        (RackConfig, "n_nodes", 2.5),
        (RackConfig, "n_nodes", 0),
        (RackConfig, "cores_per_node", "320"),
        (RackConfig, "cache_lines", 0),
        (RackConfig, "global_mem_size", -4096),
        (RackConfig, "local_mem_size", True),
        # the software cost models: each field is added to a clock as it is
        (OsCosts, "syscall_ns", NAN),
        (OsCosts, "addr_space_switch_ns", -600.0),
        (OsCosts, "copy_ns_per_byte", INF),
        (TcpCosts, "syscall_ns", NAN),
        (TcpCosts, "wakeup_ns", -1.0),
        (TcpCosts, "tx_stack_ns", "1600"),
        (RdmaCosts, "nic_ns", NAN),
        (RdmaCosts, "pcie_ns_per_byte", -0.03),
        (SerializationCosts, "per_byte_ns", INF),
        (SerializationCosts, "fixed_ns", "400"),
        # a ZeroDivisionError at the first packet_count / wire_ns before
        (EthernetSpec, "mtu", 0),
        (EthernetSpec, "bandwidth_bytes_per_ns", 0.0),
        (EthernetSpec, "bandwidth_bytes_per_ns", INF),
        (EthernetSpec, "propagation_ns", NAN),
        (EthernetSpec, "propagation_ns", -600.0),
        (EthernetSpec, "mtu", 1500.5),
        (EthernetSpec, "header_bytes", -1),
        (EthernetSpec, "header_bytes", True),
    ])
    def test_hostile_field_is_a_value_error_naming_it(self, cls, field, value):
        with pytest.raises(ValueError, match=rf"{cls.__name__}\.{field} must be .*, got {value!r}"):
            cls(**{field: value})

    def test_fault_model_edited_in_place_is_checked_again(self):
        injector = FaultInjector(FaultModel(global_ce_rate=0.1))
        injector.model.global_ue_rate = 2.0
        with pytest.raises(ValueError, match=r"FaultModel\.global_ue_rate .*, got 2\.0"):
            injector.model_changed()

    def test_unknown_node_rejected(self, machine):
        with pytest.raises(KeyError):
            machine.context(99)

    def test_unknown_topology_rejected(self):
        with pytest.raises(KeyError):
            RackMachine(RackConfig(topology="nope"))


#: Every NodeContext op that issues a machine op: (context method, the
#: RackMachine op it reaches, its arguments on machine ``m``).
_DISPATCH = [
    ("load", "load", lambda m: (m.global_base, 8)),
    ("store", "store", lambda m: (m.global_base, b"x" * 8)),
    ("load_many", "load_many", lambda m: ([m.global_base], 8)),
    ("store_many", "store_many",
     lambda m: (SlotWindow(m.address_map, m.global_base, 1, 8).at([0]), b"x" * 8)),
    ("atomic_store_many", "atomic_store_many", lambda m: ([m.global_base], 1)),
    ("cas", "atomic_cas", lambda m: (m.global_base, 0, 1)),
    ("fetch_add", "atomic_fetch_add", lambda m: (m.global_base, 1)),
    ("swap", "atomic_swap", lambda m: (m.global_base, 1)),
    ("atomic_load", "atomic_load", lambda m: (m.global_base,)),
    ("atomic_store", "atomic_store", lambda m: (m.global_base, 1)),
    ("flush", "flush", lambda m: (m.global_base, 8)),
    ("invalidate", "invalidate", lambda m: (m.global_base, 8)),
    ("fence", "fence", lambda m: ()),
]


class TestDispatch:
    """A context reaches ``RackMachine.<op>`` when it is called, not when it
    is built: the perf tracer and the spies of the bulk-plane and resilience
    tests patch the class on a machine whose contexts already exist.  A
    context that bound its ops at construction (``functools.partial``) would
    keep calling the unpatched op and fail here."""

    @pytest.mark.parametrize("method, op, args", _DISPATCH, ids=[m for m, _, _ in _DISPATCH])
    def test_an_op_patched_after_the_context_is_built_is_what_it_calls(
        self, machine, monkeypatch, method, op, args
    ):
        ctx = machine.context(1)
        real, seen = getattr(RackMachine, op), []

        def spy(self, node_id, *rest, **kw):
            seen.append(node_id)
            return real(self, node_id, *rest, **kw)

        monkeypatch.setattr(RackMachine, op, spy)
        getattr(ctx, method)(*args(machine))
        assert seen[:1] == [1], f"NodeContext.{method} did not reach the patched RackMachine.{op}"

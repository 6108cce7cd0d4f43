"""End-to-end instrumentation tests: drive each instrumented subsystem
with telemetry enabled and check the expected ``(node, subsystem, name)``
keys fill in — and that nothing records while telemetry is off."""

from repro import telemetry
from repro.bench import build_rig
from repro.telemetry import TELEMETRY


class TestDisabled:
    def test_disabled_records_nothing(self):
        rig = build_rig()
        kernel = rig.kernel
        rig.c0.load(rig.machine.global_base, 8)
        fd = kernel.fs.open(rig.c0, "/f", create=True)
        kernel.fs.write(rig.c0, fd, 0, b"data")
        kernel.fs.read(rig.c0, fd, 0, 4)
        reg = TELEMETRY.registry
        assert not reg.counters and not reg.gauges and not reg.histograms
        assert not TELEMETRY.trace.spans


class TestMachineCounters:
    def test_cache_hit_miss_match_stats(self):
        telemetry.enable()
        rig = build_rig()
        g = rig.machine.global_base
        for i in range(32):
            rig.machine.load(0, g + (i % 8) * 64, 8)
        rig.machine.store(0, g, b"\x01" * 8)
        reg = TELEMETRY.registry
        s = rig.machine.nodes[0].cache.stats
        assert reg.counters.get((0, "rack.machine", "cache.hit"), 0.0) == s.hits
        assert reg.counters.get((0, "rack.machine", "cache.miss"), 0.0) == s.misses

    def test_remote_fetch_counts_global_misses_only(self):
        telemetry.enable()
        rig = build_rig()
        rig.machine.load(0, rig.machine.global_base + (1 << 20), 8)  # global miss
        rig.machine.load(0, rig.machine.local_base(0) + 4096, 8)  # local miss
        reg = TELEMETRY.registry
        assert reg.counters.get((0, "rack.machine", "cache.remote_fetch"), 0.0) == 1
        assert reg.counters.get((0, "rack.machine", "cache.miss"), 0.0) == 2

    def test_bypass_and_atomic_counters(self):
        rig = build_rig()
        telemetry.enable()  # after boot: count only this test's traffic
        g = rig.machine.global_base
        rig.machine.load(0, g, 4096, bypass_cache=True)
        rig.machine.store(0, g, b"\x00" * 4096, bypass_cache=True)
        rig.machine.atomic_fetch_add(0, g + 8192, 1)
        rig.machine.atomic_fetch_add(0, rig.machine.local_base(0), 1)
        reg = TELEMETRY.registry
        assert reg.counters.get((0, "rack.machine", "bypass.load"), 0.0) == 1
        assert reg.counters.get((0, "rack.machine", "bypass.store"), 0.0) == 1
        assert reg.counters.get((0, "rack.machine", "atomic.global"), 0.0) == 1
        assert reg.counters.get((0, "rack.machine", "atomic.local"), 0.0) == 1


class TestIpcCounters:
    def test_inline_vs_zero_copy_sends(self):
        telemetry.enable()
        rig = build_rig()
        ipc = rig.kernel.ipc
        listener = ipc.listen(rig.c1, "svc")
        conn = ipc.connect(rig.c0, "svc")
        server = listener.accept(rig.c1)
        assert conn.send(rig.c0, b"small")
        assert conn.send(rig.c0, b"B" * 4096)  # > INLINE_MAX: shared buffer
        assert server.recv(rig.c1) == b"small"
        assert server.recv(rig.c1) == b"B" * 4096
        reg = TELEMETRY.registry
        assert reg.counters.get((0, "core.ipc", "ipc.send.inline"), 0.0) == 1
        assert reg.counters.get((0, "core.ipc", "ipc.send.zero_copy"), 0.0) == 1
        assert reg.histograms[(0, "core.ipc", "ipc.zero_copy_send_ns")].count == 1


class TestReliabilityCounters:
    def test_fault_log_mirrors_into_registry(self):
        telemetry.enable()
        rig = build_rig()
        m = rig.machine
        m.faults.inject_ce(m.global_base + 64, node_id=1, now_ns=5.0)
        m.faults.inject_ce(m.global_base + 128, node_id=1, now_ns=6.0)
        m.faults.inject_ue(m.global_mem, 4096, node_id=0, now_ns=7.0)
        reg = TELEMETRY.registry
        assert reg.counters.get((1, "reliability", "fault.ce"), 0.0) == 2
        assert reg.counters.get((0, "reliability", "fault.ue"), 0.0) == 1

    def test_scrub_repair_pipeline_counters(self):
        telemetry.enable(tracing=True)
        rig = build_rig()
        kernel = rig.kernel
        m = rig.machine
        # poison a page the FS committed, then let the scrubber heal it
        fd = kernel.fs.open(rig.c0, "/heal", create=True)
        kernel.fs.write(rig.c0, fd, 0, b"k" * 4096)
        kernel.fs.fsync(rig.c0, fd)
        target = m.global_base + (1 << 21)
        m.faults.inject_ue(m.global_mem, target - m.global_base, rack_addr=target)
        while kernel.scrubber.stats.passes == 0:  # one patrol of the whole region
            kernel.scrubber.step(rig.c0)
        reg = TELEMETRY.registry
        assert reg.counter_total("reliability", "scrub.latent_pages") >= 1
        assert reg.gauges[(0, "reliability", "scrub.evacuated")] == kernel.scrubber.stats.evacuated
        assert reg.counter_total("reliability", "repair.attempt") >= 1
        ok = reg.counter_total("reliability", "repair.ok")
        fail = reg.counter_total("reliability", "repair.fail")
        assert ok + fail >= 1
        # spans recorded the causal tree
        names = {s.name for s in TELEMETRY.trace.spans}
        assert "reliability.scrub.step" in names
        assert "reliability.repair" in names

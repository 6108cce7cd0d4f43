"""Tests for the FlacOS memory system: shared page tables, TLBs,
shootdown, address spaces, demand paging, placement, CoW, and dedup."""

import pytest

from repro.core.memory import (
    PAGE_SIZE,
    PTE_COW,
    PageFault,
    PageTableError,
    Placement,
    ProtectionFault,
    Protection,
    SegmentationFault,
    SharedPageTable,
    Tlb,
    TlbShootdown,
)
from repro.core.memory import tlb as tlb_module
from repro.flacdk.alloc import SharedHeap


@pytest.fixture
def table(rack2):
    _, c0, _, arena = rack2
    heap = SharedHeap(arena.take(1 << 22), 1 << 22).format(c0)
    return SharedPageTable(arena.take(8, align=8), arena.take(8, align=8), heap).format(c0)


class TestSharedPageTable:
    def test_map_translate_across_nodes(self, rack2, table):
        _, c0, c1, _ = rack2
        table.map(c0, 0x4000_0000, 0x1000, flags=2)  # writable
        t = table.translate(c1, 0x4000_0123, write=True)
        assert t.frame_addr == 0x1000 and t.writable

    def test_missing_page_faults(self, rack2, table):
        _, c0, _, _ = rack2
        with pytest.raises(PageFault):
            table.translate(c0, 0x5000_0000)

    def test_readonly_write_protection_faults(self, rack2, table):
        _, c0, c1, _ = rack2
        table.map(c0, 0x1000, 0x2000, flags=0)
        table.translate(c1, 0x1000)  # read ok
        with pytest.raises(ProtectionFault):
            table.translate(c1, 0x1000, write=True)

    def test_unmap_returns_translation(self, rack2, table):
        _, c0, _, _ = rack2
        table.map(c0, 0x1000, 0x3000, flags=2)
        t = table.unmap(c0, 0x1000)
        assert t.frame_addr == 0x3000
        assert table.try_translate(c0, 0x1000) is None
        assert table.unmap(c0, 0x1000) is None

    def test_unaligned_frame_rejected(self, rack2, table):
        _, c0, _, _ = rack2
        with pytest.raises(PageTableError):
            table.map(c0, 0x1000, 0x3001, flags=0)

    def test_entries_enumeration(self, rack2, table):
        _, c0, _, _ = rack2
        table.map(c0, 0x1000, 0x3000, flags=0)
        table.map(c0, 0x2000, 0x4000, flags=0)
        entries = dict(table.entries(c0))
        assert set(entries) == {1, 2}

    def test_generation_counter(self, rack2, table):
        _, c0, c1, _ = rack2
        assert c0.atomic_load(table.generation_addr) == 0
        c1.fetch_add(table.generation_addr, 1)  # what a shootdown publishes
        assert c0.atomic_load(table.generation_addr) == 1


class TestTlb:
    def test_hit_after_fill(self, rack2, table):
        _, c0, _, _ = rack2
        tlb = Tlb()
        table.map(c0, 0x1000, 0x3000, flags=2)
        t = table.translate(c0, 0x1000)
        tlb.fill(1, 0x1000, t)
        assert tlb.lookup(c0, 1, 0x1FFF).frame_addr == 0x3000
        assert tlb.stats.hits == 1

    def test_capacity_bounded(self, rack2, table, monkeypatch):
        _, c0, _, _ = rack2
        monkeypatch.setattr(tlb_module, "TLB_CAPACITY", 2)
        tlb = Tlb()
        table.map(c0, 0x1000, 0x3000, flags=0)
        t = table.translate(c0, 0x1000)
        for vpn in range(5):
            tlb.fill(1, vpn << 12, t)
        assert len(tlb._entries) == 2

    def test_asid_isolation(self, rack2, table):
        _, c0, _, _ = rack2
        tlb = Tlb()
        table.map(c0, 0x1000, 0x3000, flags=0)
        tlb.fill(1, 0x1000, table.translate(c0, 0x1000))
        assert tlb.lookup(c0, 2, 0x1000) is None

    def test_invalidate_asid(self, rack2, table):
        _, c0, _, _ = rack2
        tlb = Tlb()
        table.map(c0, 0x1000, 0x3000, flags=0)
        t = table.translate(c0, 0x1000)
        tlb.fill(1, 0x1000, t)
        tlb.fill(2, 0x1000, t)
        assert tlb.invalidate_asid(c0, 1) == 1
        assert tlb.lookup(c0, 2, 0x1000) is not None


class TestTlbShootdown:
    def test_doorbell_round(self, rack2):
        _, c0, c1, arena = rack2
        sd = TlbShootdown(arena.take(TlbShootdown.region_size(2), align=8), 2).format(c0)
        tlb1 = Tlb()
        from repro.core.memory import Translation

        tlb1.fill(7, 0x1000, Translation(0x3000, 1))
        gen = sd.request(c0, asid=7)
        assert not sd.acked_by_all(c0, gen)
        assert sd.service(c1, tlb1)
        assert sd.acked_by_all(c0, gen)
        assert tlb1.lookup(c1, 7, 0x1000) is None

    def test_service_without_pending_is_noop(self, rack2):
        _, c0, c1, arena = rack2
        sd = TlbShootdown(arena.take(TlbShootdown.region_size(2), align=8), 2).format(c0)
        assert not sd.service(c1, Tlb())

    def test_ranged_shootdown_spares_other_pages(self, rack2):
        _, c0, c1, arena = rack2
        from repro.core.memory import Translation

        sd = TlbShootdown(arena.take(TlbShootdown.region_size(2), align=8), 2).format(c0)
        tlb1 = Tlb()
        tlb1.fill(7, 0x1000, Translation(0x3000, 1))
        tlb1.fill(7, 0x9000, Translation(0x4000, 1))
        sd.request(c0, asid=7, start_vpn=1, end_vpn=2)
        sd.service(c1, tlb1)
        assert tlb1.lookup(c1, 7, 0x1000) is None
        assert tlb1.lookup(c1, 7, 0x9000) is not None


class TestAddressSpace:
    def test_demand_paging_write_read(self, rack2, memsys):
        _, c0, _, _ = rack2
        aspace = memsys.create_address_space(c0)
        va = aspace.mmap(c0, 8 * PAGE_SIZE)
        aspace.write(c0, va + 100, b"hello")
        assert aspace.read(c0, va + 100, 5) == b"hello"
        assert aspace.fault_count == 1

    def test_cross_page_write(self, rack2, memsys):
        _, c0, _, _ = rack2
        aspace = memsys.create_address_space(c0)
        va = aspace.mmap(c0, 4 * PAGE_SIZE)
        data = bytes(range(256)) * 32  # 8 KiB, spans 3 pages from offset
        aspace.write(c0, va + 1000, data)
        assert aspace.read(c0, va + 1000, len(data)) == data
        assert aspace.fault_count == 3

    def test_rack_wide_sharing_via_global_placement(self, rack2, memsys):
        _, c0, c1, _ = rack2
        aspace = memsys.create_address_space(c0)
        memsys.install(c1, aspace)
        va = aspace.mmap(c0, PAGE_SIZE, placement=Placement.GLOBAL)
        aspace.write(c0, va, b"shared-state")
        aspace.publish(c0, va, 12)
        aspace.refresh(c1, va, 12)
        assert aspace.read(c1, va, 12) == b"shared-state"

    def test_local_placement_is_per_node_first_touch(self, rack2, memsys):
        machine, c0, c1, _ = rack2
        aspace = memsys.create_address_space(c0)
        memsys.install(c1, aspace)
        va = aspace.mmap(c0, PAGE_SIZE, placement=Placement.LOCAL)
        aspace.write(c0, va, b"node0")
        aspace.write(c1, va, b"node1")
        # NUMA first-touch: each node faulted its own local frame
        assert aspace.read(c0, va, 5) == b"node0"
        assert aspace.read(c1, va, 5) == b"node1"
        assert aspace.fault_count == 2

    def test_unmapped_access_segfaults(self, rack2, memsys):
        _, c0, _, _ = rack2
        aspace = memsys.create_address_space(c0)
        with pytest.raises(SegmentationFault):
            aspace.read(c0, 0xDEAD000, 4)

    def test_write_to_readonly_segfaults(self, rack2, memsys):
        _, c0, _, _ = rack2
        aspace = memsys.create_address_space(c0)
        va = aspace.mmap(c0, PAGE_SIZE, prot=Protection.READ)
        with pytest.raises(SegmentationFault):
            aspace.write(c0, va, b"x")

    def test_munmap_frees_frames(self, rack2, memsys):
        _, c0, c1, _ = rack2
        aspace = memsys.create_address_space(c0)
        va = aspace.mmap(c0, 2 * PAGE_SIZE)
        aspace.write(c0, va, b"x" * (2 * PAGE_SIZE))
        used_before = memsys.frames_in_use(c0)["global"]
        torn = memsys.unmap_range(c0, aspace, va, 2 * PAGE_SIZE, responders=[c1])
        assert torn == 2
        assert memsys.frames_in_use(c0)["global"] == used_before - 2
        with pytest.raises(SegmentationFault):
            aspace.read(c0, va, 4)

    def test_mmap_regions_do_not_overlap(self, rack2, memsys):
        _, c0, c1, _ = rack2
        aspace = memsys.create_address_space(c0)
        memsys.install(c1, aspace)
        a = aspace.mmap(c0, 4 * PAGE_SIZE)
        b = aspace.mmap(c1, 4 * PAGE_SIZE)  # from the other node
        assert b >= a + 4 * PAGE_SIZE or a >= b + 4 * PAGE_SIZE

    def test_shootdown_after_munmap_blocks_stale_tlb(self, rack2, memsys):
        _, c0, c1, _ = rack2
        aspace = memsys.create_address_space(c0)
        memsys.install(c1, aspace)
        va = aspace.mmap(c0, PAGE_SIZE, placement=Placement.GLOBAL)
        aspace.write(c0, va, b"live")
        aspace.read(c1, va, 4)  # node 1 caches the translation
        memsys.unmap_range(c0, aspace, va, PAGE_SIZE, responders=[c1])
        assert memsys.tlbs[1].lookup(c1, aspace.asid, va) is None

    def test_tlb_miss_walks_then_the_next_read_hits(self, rack2, memsys):
        _, c0, _, _ = rack2
        aspace = memsys.create_address_space(c0)
        va = aspace.mmap(c0, 3 * PAGE_SIZE)
        aspace.write(c0, va, b"hello")
        stats = memsys.tlbs[0].stats
        misses, before = stats.misses, c0.now()
        aspace.read(c0, va, 5)  # walks the shared table, fills the TLB
        walked, before = c0.now() - before, c0.now()
        aspace.read(c0, va, 5)
        assert stats.hits == 1 and stats.misses == misses + 1
        assert c0.now() - before < walked  # the hit skips the walk


class TestDedupAndCow:
    def _two_identical_pages(self, rack2, memsys):
        _, c0, c1, _ = rack2
        a1 = memsys.create_address_space(c0)
        a2 = memsys.create_address_space(c1)
        v1 = a1.mmap(c0, PAGE_SIZE)
        v2 = a2.mmap(c1, PAGE_SIZE)
        for aspace, ctx, va in ((a1, c0, v1), (a2, c1, v2)):
            aspace.write(ctx, va, b"SAME" * 1024)
            aspace.publish(ctx, va, PAGE_SIZE)
        return a1, a2, v1, v2, c0, c1

    def test_dedup_merges_identical_frames(self, rack2, memsys):
        a1, a2, v1, v2, c0, c1 = self._two_identical_pages(rack2, memsys)
        used_before = memsys.frames_in_use(c0)["global"]
        assert memsys.dedup_global_frames(c0) == 1
        assert memsys.frames_in_use(c0)["global"] == used_before - 1
        t1 = a1.page_table.try_translate(c0, v1)
        t2 = a2.page_table.try_translate(c1, v2)
        assert t1.frame_addr == t2.frame_addr
        assert t1.flags & PTE_COW and t2.flags & PTE_COW

    def test_cow_write_privatises(self, rack2, memsys):
        a1, a2, v1, v2, c0, c1 = self._two_identical_pages(rack2, memsys)
        memsys.dedup_global_frames(c0)
        a2.write(c1, v2, b"DIFF")
        assert a2.cow_breaks == 1
        assert a1.read(c0, v1, 4) == b"SAME"
        assert a2.read(c1, v2, 4) == b"DIFF"

    def test_both_sharers_can_diverge(self, rack2, memsys):
        a1, a2, v1, v2, c0, c1 = self._two_identical_pages(rack2, memsys)
        memsys.dedup_global_frames(c0)
        a1.write(c0, v1, b"ONE!")
        a2.write(c1, v2, b"TWO!")
        assert a1.read(c0, v1, 4) == b"ONE!"
        assert a2.read(c1, v2, 4) == b"TWO!"

    def test_dedup_skips_distinct_content(self, rack2, memsys):
        _, c0, c1, _ = rack2
        a1 = memsys.create_address_space(c0)
        v1 = a1.mmap(c0, 2 * PAGE_SIZE)
        a1.write(c0, v1, b"A" * PAGE_SIZE)
        a1.write(c0, v1 + PAGE_SIZE, b"B" * PAGE_SIZE)
        a1.publish(c0, v1, 2 * PAGE_SIZE)
        assert memsys.dedup_global_frames(c0) == 0

    def test_dedup_stats_accumulate(self, rack2, memsys):
        _, _, _, _ = rack2
        a1, a2, v1, v2, c0, c1 = self._two_identical_pages(rack2, memsys)
        memsys.dedup_global_frames(c0)
        stats = memsys.deduper.stats
        assert stats.merged_frames == 1
        assert stats.bytes_saved == PAGE_SIZE
        assert stats.cow_remaps == 1

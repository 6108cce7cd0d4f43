"""Tests for persistent global memory as the pool's media.

The paper's simulated platform runs VMs over *shared persistent
memory*; a rack whose global pool is PMEM pays its extra latency.
"""

import pytest

from repro.rack import MemoryKind, RackConfig, RackMachine


def _machine(kind: str) -> RackMachine:
    return RackMachine(
        RackConfig(n_nodes=2, global_mem_size=1 << 25, global_kind=kind)
    )


class TestMedia:
    def test_kind_selected_by_config(self):
        assert _machine("pmem").global_mem.kind is MemoryKind.PMEM
        assert _machine("dram").global_mem.kind is MemoryKind.GLOBAL

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            RackConfig(global_kind="flash")

    def test_pmem_is_slower_than_dram(self):
        costs = {}
        for kind in ("dram", "pmem"):
            machine = _machine(kind)
            machine.load(0, machine.global_base, 4096)
            costs[kind] = machine.now(0)
        assert costs["pmem"] > costs["dram"]

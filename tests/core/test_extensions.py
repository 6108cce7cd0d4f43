"""Tests for the §5 open-challenge state boot lays out: the boot-rom rack
description."""

import struct

import pytest

from repro.bench import build_rig
from repro.core import boot
from repro.core.boot import BootRom, DeviceTreeError, DtNode, flatten, rack_description


@pytest.fixture
def rig():
    return build_rig()


def _u64(node: DtNode, name: str) -> int:
    return struct.unpack("<Q", node.properties[name])[0]


def _child(node: DtNode, path: str) -> DtNode:
    for part in path.split("/"):
        node = next(c for c in node.children if c.name == part)
    return node


class TestBootRom:
    def test_rack_description_reflects_hardware(self, rig):
        desc = rack_description(rig.machine)
        assert _u64(desc, "#nodes") == 2
        assert _u64(_child(desc, "memory/global"), "size") == rig.machine.global_size
        assert _u64(_child(desc, "memory/local@1"), "owner") == 1
        assert _u64(_child(desc, "cpus/node@0"), "cores") == 320
        assert _u64(_child(desc, "fabric/port@0"), "hops") == 1

    def test_every_node_discovers_the_same_description(self, rig):
        blob = flatten(rack_description(rig.machine))
        base = rig.kernel.bootrom.base
        for ctx in (rig.c0, rig.c1):
            assert ctx.load(base, len(blob), bypass_cache=True) == blob

    def test_capacity_enforced(self, rig, monkeypatch):
        monkeypatch.setattr(boot, "ROM_BYTES", 64)
        tiny = BootRom(rig.kernel.arena.take(64, align=64))
        big = DtNode("rack")
        big.set_prop("blob", b"x" * 100)
        with pytest.raises(DeviceTreeError):
            tiny.publish(rig.c0, big)

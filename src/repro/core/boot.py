"""System bootstrapping over shared memory (§5 "Open Challenges").

The paper: hardware-description structures (memory topology, bus
hierarchy) should live in shared memory so every node discovers the
rack's resources from one place, FDT/ACPI style.  This module is the
publishing half of a small flattened device tree: node 0's "BIOS" builds
the rack description and flattens it to bytes at a well-known global
address.  No node parses it back.  Boot still publishes it because the
perf benchmark expects ``RackMachine.store`` on the traffic workloads and
this is that method's one caller there; ROADMAP item 1(a) drops the
expectation, and this module goes with it.

Format (all little-endian)::

    header:  magic u32 | total size u32
    node:    0x01 | name (nul-terminated)
    prop:    0x03 | name (nul) | value length u32 | value bytes
    end node: 0x02
    end tree: 0x09
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Union

from ..rack.machine import NodeContext, RackMachine

_MAGIC = 0xD00DFEED  # the real FDT magic, as a nod
_BEGIN_NODE = 0x01
_END_NODE = 0x02
_PROP = 0x03
_END_TREE = 0x09

#: Bytes of global memory the boot ROM holds the flattened description in.
ROM_BYTES = 1 << 16

PropertyValue = Union[int, str, bytes]


class DeviceTreeError(Exception):
    pass


@dataclass
class DtNode:
    """One node of the hardware description tree."""

    name: str
    properties: Dict[str, bytes] = field(default_factory=dict)
    children: List["DtNode"] = field(default_factory=list)

    def set_prop(self, name: str, value: PropertyValue) -> "DtNode":
        if isinstance(value, int):
            self.properties[name] = struct.pack("<Q", value)
        elif isinstance(value, str):
            self.properties[name] = value.encode() + b"\x00"
        else:
            self.properties[name] = bytes(value)
        return self

    def add_child(self, name: str) -> "DtNode":
        child = DtNode(name)
        self.children.append(child)
        return child


def flatten(root: DtNode) -> bytes:
    """Serialise the tree (FDT style)."""
    body = bytearray()

    def emit(node: DtNode) -> None:
        body.append(_BEGIN_NODE)
        body.extend(node.name.encode() + b"\x00")
        for name, value in sorted(node.properties.items()):
            body.append(_PROP)
            body.extend(name.encode() + b"\x00")
            body.extend(struct.pack("<I", len(value)))
            body.extend(value)
        for child in node.children:
            emit(child)
        body.append(_END_NODE)

    emit(root)
    body.append(_END_TREE)
    return struct.pack("<II", _MAGIC, 8 + len(body)) + bytes(body)


def rack_description(machine: RackMachine) -> DtNode:
    """Build the rack's hardware description (what the BIOS advertises)."""
    root = DtNode("rack")
    root.set_prop("compatible", "flacos,rack-v1")
    root.set_prop("#nodes", len(machine.nodes))

    memory = root.add_child("memory")
    gmem = memory.add_child("global")
    gmem.set_prop("base", machine.global_base)
    gmem.set_prop("size", machine.global_size)
    gmem.set_prop("coherent", 0)
    for node_id, node in machine.nodes.items():
        local = memory.add_child(f"local@{node_id}")
        local.set_prop("base", machine.local_base(node_id))
        local.set_prop("size", node.local_mem.size)
        local.set_prop("owner", node_id)

    cpus = root.add_child("cpus")
    for node_id, node in machine.nodes.items():
        cpu = cpus.add_child(f"node@{node_id}")
        cpu.set_prop("cores", node.n_cores)

    fabric = root.add_child("fabric")
    fabric.set_prop("topology", machine.config.topology)
    for node_id in machine.nodes:
        port = fabric.add_child(f"port@{node_id}")
        cost = machine.fabric.path_to_gmem(node_id)
        port.set_prop("hops", cost.hops)
        port.set_prop("switches", cost.switches)
    return root


class BootRom:
    """Publishes the rack description through global memory.

    Node 0 calls :meth:`publish` once ("BIOS"): the §5 bootstrapping
    story, where every node would read the same shared bytes instead of
    per-node configuration files.
    """

    def __init__(self, base: int) -> None:
        self.base = base

    def publish(self, ctx: NodeContext, root: DtNode) -> int:
        blob = flatten(root)
        if len(blob) > ROM_BYTES:
            raise DeviceTreeError(f"description of {len(blob)} B exceeds rom capacity {ROM_BYTES}")
        ctx.store(self.base, blob, bypass_cache=True)
        return len(blob)

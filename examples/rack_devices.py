#!/usr/bin/env python
"""The §5 open challenges, running: boot rom, rack interrupts, devices.

Shows the three hardware-software co-design features the paper leaves
as future work, implemented over shared memory: FDT-style hardware
discovery, cross-node IPIs with irq balancing, and a shared NVMe device
driven from a remote node plus a two-rail aggregated volume.

Run:  python examples/rack_devices.py
"""

from repro.bench import build_rig
from repro.core.devices import AggregatedVolume


def main() -> None:
    rig = build_rig()
    kernel = rig.kernel

    print("== boot: every node discovers the same hardware description ==")
    for node_id in (0, 1):
        ctx = kernel.context(node_id)
        desc = kernel.bootrom.discover(ctx)
        gmem = desc.find("memory/global")
        print(
            f"node {node_id} sees: {desc.get_str('compatible')}, "
            f"{desc.get_u64('#nodes')} nodes, global memory "
            f"{gmem.get_u64('size') >> 20} MiB (coherent={gmem.get_u64('coherent')})"
        )

    print("\n== rack-wide IPIs ==")
    tickles = []
    kernel.interrupts.register(1, 5, lambda ctx, v: tickles.append(v))
    kernel.interrupts.send_ipi(rig.c0, target_node=1, vector=5)
    kernel.interrupts.poll(rig.c1)
    print(f"node 0 -> node 1 vector 5: handler saw {tickles}")

    print("\n== irq balancing ==")
    balancer = kernel.irqs
    for _ in range(9):
        balancer.raise_irq(rig.c0, irq=4, vector=3)  # a noisy NIC queue
    balancer.raise_irq(rig.c0, irq=6, vector=3)
    moves = balancer.rebalance(rig.c0)
    print(f"rebalanced routes: {moves or 'already balanced'}")
    print(f"irq 4 now routed to node {balancer.route_of(rig.c0, 4)}, "
          f"irq 6 to node {balancer.route_of(rig.c0, 6)}")

    print("\n== shared device: node 0 drives an NVMe attached to node 1 ==")
    nvme = kernel.devices.attach(rig.c1, "nvme0", kernel.ipc.heap.alloc)
    tag = nvme.submit_write(rig.c0, block_no=7, data=b"remote I/O" * 409 + b"\x00" * 6)
    nvme.drive(rig.c1)  # the attach node's driver loop
    completion = nvme.reap(rig.c0)
    print(f"write tag {completion.tag} completed with status {completion.status}")
    tag, buffer = nvme.submit_read(rig.c0, block_no=7)
    nvme.drive(rig.c1)
    nvme.reap(rig.c0)
    print("read back in place:", nvme.read_dma(rig.c0, buffer)[:10])
    nvme.release_dma(rig.c0, buffer)
    print("rack device namespace:", kernel.devices.listing(rig.c0))

    print("\n== aggregation: striping across both nodes' devices ==")
    rails = [nvme, kernel.devices.attach(rig.c0, "nvme1", kernel.ipc.heap.alloc)]
    volume = AggregatedVolume(rails)
    drivers = {0: rig.c0, 1: rig.c1}
    blocks = [bytes([i]) * 4096 for i in range(8)]
    makespan = volume.write_striped(rig.c0, drivers, 0, blocks)
    print(f"8 blocks striped over 2 rails in {makespan / 1e3:.1f} us")
    assert volume.read_striped(rig.c0, drivers, 0, 8) == blocks
    print("striped read-back verified")


if __name__ == "__main__":
    main()

"""E2 — §4.2 container startup: cold vs FlacOS shared-cache vs hot.

Node 1 cold-starts the 4 GB PyTorch image (registry pull); node 2 then
starts the same image from the rack-shared page cache; a repeat start
on a warmed node is hot.  Paper: 21.067 s / 5.526 s / 3.02 s — a 3.8x
improvement from sharing, with hot < FlacOS because the shared path
still downloads the manifest.
"""

from repro.apps.containers import ContainerRuntime, Registry, pytorch_image
from repro.bench import Table, build_rig, check_ratio
from repro.rack import rendezvous

PAPER = {"cold": 21.067, "flacos-shared": 5.526, "hot": 3.02}
PAPER_IMPROVEMENT = 21.067 / 5.526  # 3.81x


def run_startup_experiment():
    rig = build_rig()
    registry = Registry()
    registry.push(pytorch_image())
    runtime = ContainerRuntime(rig.kernel.fs, registry)
    cold = runtime.start(rig.c0, "pytorch:2.1")
    # node 2 begins after node 1 finished (wall-clock ordering of the paper)
    rendezvous(rig.c0.node.clock, rig.c1.node.clock)
    t0 = rig.c1.now()
    shared = runtime.start(rig.c1, "pytorch:2.1")
    shared_elapsed_s = (rig.c1.now() - t0) / 1e9
    hot = runtime.start(rig.c1, "pytorch:2.1")
    return cold, shared, shared_elapsed_s, hot


def test_container_startup(emit):
    cold, shared, shared_s, hot = run_startup_experiment()
    table = Table(
        "§4.2 container startup — 4 GB PyTorch image",
        ["path", "measured (s)", "paper (s)", "manifest (s)", "pull (s)",
         "cache read (s)", "unpack (s)", "runtime init (s)"],
    )
    table.add_row(
        "cold (registry)", f"{cold.total_s:.3f}", PAPER["cold"],
        f"{cold.manifest_ns / 1e9:.3f}", f"{cold.pull_ns / 1e9:.3f}",
        "-", f"{cold.unpack_ns / 1e9:.3f}", f"{cold.runtime_init_ns / 1e9:.3f}",
    )
    table.add_row(
        "FlacOS (shared page cache)", f"{shared_s:.3f}", PAPER["flacos-shared"],
        f"{shared.manifest_ns / 1e9:.3f}", "-",
        f"{shared.image_read_ns / 1e9:.3f}", "-", f"{shared.runtime_init_ns / 1e9:.3f}",
    )
    table.add_row(
        "hot (local, warm)", f"{hot.total_s:.3f}", PAPER["hot"],
        "-", "-", "-", "-", f"{hot.runtime_init_ns / 1e9:.3f}",
    )
    improvement = cold.total_s / shared_s
    ok, message = check_ratio(
        "startup improvement", improvement, PAPER_IMPROVEMENT, PAPER_IMPROVEMENT
    )
    ordering = (
        f"ordering: cold ({cold.total_s:.2f}s) > FlacOS ({shared_s:.2f}s) "
        f"> hot ({hot.total_s:.2f}s) — hot wins because FlacOS still fetches the manifest"
    )
    emit("E2_container_startup", table.render() + "\n" + message + "\n" + ordering)
    assert cold.total_s > shared_s > hot.total_s
    assert shared.pull_ns == 0, "FlacOS path must not touch the registry for layers"
    assert shared.shared_cache_hits > 0
    assert ok, message


def test_container_startup_on_pmem_platform(emit):
    """The paper's *simulated platform*: VMs sharing persistent memory.

    Same experiment on a rack whose global pool is PMEM — the ordering
    and the improvement band must hold on the slower, persistent medium
    too (as the paper's own VM platform showed).
    """
    from repro.core.kernel import FlacOS
    from repro.rack import RackConfig, RackMachine

    machine = RackMachine(
        RackConfig(n_nodes=2, global_mem_size=1 << 26, global_kind="pmem")
    )
    kernel = FlacOS.boot(machine)
    c0, c1 = machine.context(0), machine.context(1)
    registry = Registry()
    registry.push(pytorch_image())
    runtime = ContainerRuntime(kernel.fs, registry)
    cold = runtime.start(c0, "pytorch:2.1")
    rendezvous(c0.node.clock, c1.node.clock)
    t0 = c1.now()
    shared = runtime.start(c1, "pytorch:2.1")
    shared_s = (c1.now() - t0) / 1e9
    hot = runtime.start(c1, "pytorch:2.1")
    improvement = cold.total_s / shared_s
    emit(
        "E2b_container_startup_pmem",
        f"PMEM simulated platform: cold {cold.total_s:.3f}s > FlacOS {shared_s:.3f}s "
        f"> hot {hot.total_s:.3f}s; improvement {improvement:.2f}x "
        f"(paper's VM platform: 3.81x)",
    )
    assert cold.total_s > shared_s > hot.total_s
    assert 2.0 < improvement < 6.0

"""E6 — §3.6 ablation: fault boxes, blast radius, adaptive redundancy.

Three measurements:

1. **Blast radius** — an uncorrectable error hits one app's page; with
   vertical fault boxes exactly one of N apps is recovered, while the
   horizontal baseline (state pooled across apps) must recover all N.
2. **Recovery latency by redundancy mode** — NONE / CHECKPOINT /
   REPLICATE for the same app after a node crash.
3. **Redundancy overhead** — what each mode costs during normal
   operation (the price of the protection).
"""

from repro.bench import Table, build_rig
from repro.chaos import CampaignRunner, ChaosCampaign, boxes_recovered, event, survivor_liveness
from repro.core.fault import (
    AdaptiveRedundancyPolicy,
    FaultBoxManager,
    FaultRecoveryCoordinator,
    PartialReplicator,
    RedundancyMode,
)
from repro.core.memory import PAGE_SIZE
from repro.flacdk.alloc import FrameAllocator
from repro.rack.faults import FaultEvent, FaultKind
from repro.rack.memory import UncorrectableMemoryError

N_APPS = 6
PAGES_PER_APP = 4


def _boxes_rig(criticality=1):
    rig = build_rig()
    manager = rig.kernel.boxes
    boxes = []
    for i in range(N_APPS):
        box = manager.create_box(rig.c0, f"app{i}", criticality=criticality)
        va = box.aspace.mmap(rig.c0, PAGES_PER_APP * PAGE_SIZE)
        for p in range(PAGES_PER_APP):
            box.aspace.write(rig.c0, va + p * PAGE_SIZE, b"app%d:p%d " % (i, p) * 64)
        boxes.append((box, va))
    return rig, manager, boxes


def run_blast_radius():
    rig, manager, boxes = _boxes_rig()
    for box, _ in boxes:
        manager.snapshot(rig.c0, box)
    coordinator = FaultRecoveryCoordinator(manager, AdaptiveRedundancyPolicy())
    victim_box, victim_va = boxes[2]
    frame = victim_box.aspace.page_table.try_translate(rig.c0, victim_va).frame_addr
    rig.align()
    t0 = rig.c0.now()
    event = FaultEvent(FaultKind.UNCORRECTABLE, time_ns=t0, addr=frame + 8)
    report = coordinator.handle_memory_fault(rig.c0, event)
    vertical_ns = rig.c0.now() - t0
    vertical_radius = report.blast_radius_boxes

    # horizontal baseline: state pooled -> every app must be recovered
    t0 = rig.c0.now()
    for box, _ in boxes:
        manager.restore(rig.c0, box)
    horizontal_ns = rig.c0.now() - t0
    return vertical_radius, vertical_ns, N_APPS, horizontal_ns


def run_recovery_modes():
    results = {}
    for criticality, label in ((0, "NONE (restart)"), (1, "CHECKPOINT"), (2, "REPLICATE")):
        rig = build_rig()
        manager = rig.kernel.boxes
        box = manager.create_box(rig.c0, "svc", criticality=criticality)
        va = box.aspace.mmap(rig.c0, PAGES_PER_APP * PAGE_SIZE)
        for p in range(PAGES_PER_APP):
            box.aspace.write(rig.c0, va + p * PAGE_SIZE, b"state%d " % p * 100)
        standby = FrameAllocator(
            rig.kernel.arena.take(1 << 21, align=PAGE_SIZE), 1 << 21
        ).format(rig.c0)
        replicator = PartialReplicator(manager, standby)
        coordinator = FaultRecoveryCoordinator(
            manager, AdaptiveRedundancyPolicy(), replicator=replicator
        )
        # normal-operation protection cost
        rig.align()
        t0 = rig.c0.now()
        if criticality == 1:
            manager.snapshot(rig.c0, box)
        elif criticality == 2:
            replicator.enable(box)
            replicator.sync(rig.c0, box)
        overhead_ns = rig.c0.now() - t0
        # crash the home node, recover on the survivor
        rig.machine.crash_node(0)
        t0 = rig.c1.now()
        report = coordinator.handle_node_crash(rig.c1, dead_node=0)
        recovery_ns = rig.c1.now() - t0
        recovered = report.recoveries[0]
        state_ok = criticality > 0 and box.aspace.read(rig.c1, va, 6) == b"state0"
        results[label] = {
            "mode": recovered.mode,
            "overhead_ns": overhead_ns,
            "recovery_ns": recovery_ns,
            "pages": recovered.pages_restored,
            "state_ok": state_ok,
        }
    return results


def test_blast_radius(emit):
    vertical_radius, vertical_ns, horizontal_radius, horizontal_ns = run_blast_radius()
    table = Table(
        "E6a — blast radius of one uncorrectable error (6 apps on the rack)",
        ["isolation", "apps recovered", "recovery time (us)"],
    )
    table.add_row("vertical fault boxes", vertical_radius, vertical_ns / 1000)
    table.add_row("horizontal (pooled state)", horizontal_radius, horizontal_ns / 1000)
    emit(
        "E6a_blast_radius",
        table.render()
        + f"\nfault boxes recover {horizontal_radius / vertical_radius:.0f}x fewer apps, "
        f"{horizontal_ns / vertical_ns:.1f}x faster",
    )
    assert vertical_radius == 1
    assert vertical_ns < horizontal_ns


def test_recovery_modes(emit):
    results = run_recovery_modes()
    table = Table(
        "E6b — recovery by redundancy mode (node crash, 4-page app)",
        ["mode", "normal-op overhead (us)", "recovery (us)", "pages restored", "state intact"],
    )
    for label, r in results.items():
        table.add_row(
            label, r["overhead_ns"] / 1000, r["recovery_ns"] / 1000, r["pages"], r["state_ok"]
        )
    emit("E6b_recovery_modes", table.render())
    assert results["NONE (restart)"]["pages"] == 0
    assert not results["NONE (restart)"]["state_ok"]
    assert results["CHECKPOINT"]["state_ok"]
    assert results["REPLICATE"]["state_ok"]
    assert results["REPLICATE"]["mode"] is RedundancyMode.REPLICATE
    # protection costs rank: NONE < {CHECKPOINT, REPLICATE}
    assert results["NONE (restart)"]["overhead_ns"] < results["CHECKPOINT"]["overhead_ns"]
    assert results["NONE (restart)"]["overhead_ns"] < results["REPLICATE"]["overhead_ns"]


def test_incremental_replication_overhead(emit):
    """REPLICATE's steady-state cost: only dirtied pages cross at barriers."""
    rig = build_rig()
    manager = rig.kernel.boxes
    box = manager.create_box(rig.c0, "svc", criticality=2)
    va = box.aspace.mmap(rig.c0, 16 * PAGE_SIZE)
    for p in range(16):
        box.aspace.write(rig.c0, va + p * PAGE_SIZE, b"x" * 64)
    standby = FrameAllocator(rig.kernel.arena.take(1 << 21, align=PAGE_SIZE), 1 << 21).format(rig.c0)
    replicator = PartialReplicator(manager, standby)
    replicator.enable(box)
    t0 = rig.c0.now()
    first = replicator.sync(rig.c0, box)
    full_ns = rig.c0.now() - t0
    box.aspace.write(rig.c0, va, b"touched")
    t0 = rig.c0.now()
    second = replicator.sync(rig.c0, box)
    incr_ns = rig.c0.now() - t0
    emit(
        "E6c_incremental_replication",
        f"full sync: {first} pages in {full_ns / 1000:.1f} us; "
        f"incremental: {second} page(s) in {incr_ns / 1000:.1f} us",
    )
    assert first == 16 and second == 1
    assert incr_ns < full_ns


def run_self_healing(heal):
    """One chaos campaign of UE storms against protected apps.

    ``heal=True`` runs with the kernel's repair pipeline installed
    (detect -> repair -> retry, plus patrol scrubbing between steps);
    ``heal=False`` uninstalls the handler so every UE surfaces and the
    box-level recovery coordinator must restore whole boxes.
    """
    rig = build_rig()
    kernel = rig.kernel
    manager = kernel.boxes
    boxes = []
    for i in range(N_APPS):
        box = manager.create_box(rig.c0, f"app{i}", criticality=2)
        va = box.aspace.mmap(rig.c0, PAGES_PER_APP * PAGE_SIZE)
        for p in range(PAGES_PER_APP):
            box.aspace.write(rig.c0, va + p * PAGE_SIZE, b"app%d:p%d " % (i, p) * 64)
        manager.snapshot(rig.c0, box)
        kernel.replicator.enable(box)
        kernel.replicator.sync(rig.c0, box)
        boxes.append((box, va))
    if not heal:
        rig.machine.set_repair_handler(None)

    def frames_of(box, va):
        return [
            box.aspace.page_table.try_translate(rig.c0, va + p * PAGE_SIZE).frame_addr
            for p in range(PAGES_PER_APP)
        ]

    targets = tuple(f for box, va in boxes for f in frames_of(box, va))
    campaign = ChaosCampaign(
        name="e6d-ue-storms",
        seed=1234,
        events=(
            event("ue_storm", at_step=0, count=8, targets=targets),
            event("correlated_lines", at_step=0, lines=4, stride=PAGE_SIZE, base=targets[0]),
            event("ue_storm", at_step=2, count=8, targets=targets),
        ),
        description="two UE storms plus one correlated line failure on app pages",
    )

    incidents = {"surfaced": 0, "recovery_ns": 0.0, "blast_boxes": 0}

    def workload(step, ctx):
        # every app touches all of its pages each step; cold caches so the
        # reads actually reach (possibly poisoned) backing memory
        for box, va in boxes:
            for p, frame in enumerate(frames_of(box, va)):
                ctx.invalidate(frame, PAGE_SIZE)
                try:
                    box.aspace.read(ctx, va + p * PAGE_SIZE, PAGE_SIZE)
                except UncorrectableMemoryError as exc:
                    incidents["surfaced"] += 1
                    t0 = ctx.now()
                    report = kernel.recovery.handle_memory_fault(
                        ctx,
                        FaultEvent(
                            FaultKind.UNCORRECTABLE,
                            time_ns=t0,
                            addr=exc.addr,
                            node_id=exc.node_id,
                        ),
                    )
                    incidents["recovery_ns"] += ctx.now() - t0
                    incidents["blast_boxes"] += report.blast_radius_boxes

    rig.align()
    t_start = rig.machine.max_time()
    runner = CampaignRunner(kernel)
    report = runner.run(
        campaign,
        workload=workload,
        steps=5,
        invariants=[boxes_recovered(), survivor_liveness()],
        heal=heal,
    )
    ue_events = rig.machine.faults.log.events(FaultKind.UNCORRECTABLE)
    pages_poisoned = len({ev.addr & ~(PAGE_SIZE - 1) for ev in ue_events})
    repairs = kernel.repair.stats
    return {
        "ues_injected": len(ue_events),
        "pages_poisoned": pages_poisoned,
        "surfaced": incidents["surfaced"],
        "repaired": repairs.repaired,
        "attempted": repairs.attempted,
        "by_source": dict(repairs.by_source),
        "blast_boxes": incidents["blast_boxes"],
        "recovery_us": incidents["recovery_ns"] / 1000,
        "elapsed_us": (rig.machine.max_time() - t_start) / 1000,
        "violations": report.violations,
    }


def test_self_healing_chaos(emit):
    healed, baseline = run_self_healing(heal=True), run_self_healing(heal=False)
    table = Table(
        "E6d — self-healing under a chaos campaign (2 UE storms + correlated lines, "
        f"{N_APPS} replicated apps)",
        [
            "pipeline",
            "UEs injected",
            "surfaced to apps",
            "repaired in place",
            "boxes recovered",
            "box-recovery time (us)",
            "campaign time (us)",
        ],
    )
    table.add_row(
        "self-healing ON",
        healed["ues_injected"],
        healed["surfaced"],
        healed["repaired"],
        healed["blast_boxes"],
        healed["recovery_us"],
        healed["elapsed_us"],
    )
    table.add_row(
        "self-healing OFF",
        baseline["ues_injected"],
        baseline["surfaced"],
        baseline["repaired"],
        baseline["blast_boxes"],
        baseline["recovery_us"],
        baseline["elapsed_us"],
    )
    healed_frac = 1 - healed["surfaced"] / max(1, healed["pages_poisoned"])
    emit(
        "E6d_self_healing",
        table.render()
        + f"\nrepair sources used: {healed['by_source']}"
        + f"\n{healed['repaired']} in-place repairs across {healed['pages_poisoned']} poisoned "
        f"pages: {healed_frac:.0%} healed without surfacing; "
        f"blast radius {healed['blast_boxes']} vs {baseline['blast_boxes']} boxes",
    )
    assert not healed["violations"] and not baseline["violations"]
    # >=90% of UEs on replicated/checkpointed pages repaired without
    # surfacing; blast radius must not regress vs the baseline
    assert healed["surfaced"] == 0
    assert healed_frac >= 0.9
    assert baseline["surfaced"] > 0 and baseline["blast_boxes"] > healed["blast_boxes"]

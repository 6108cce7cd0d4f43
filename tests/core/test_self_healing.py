"""End-to-end self-healing: one seeded chaos campaign drives the whole
pipeline — monitor → predictor → checkpoint/replica → repair → recovery —
and every stage's observable output is asserted.
"""

import pytest

from repro.bench import build_rig
from repro.chaos import (
    CampaignRunner,
    ChaosCampaign,
    boxes_recovered,
    event,
    survivor_liveness,
)
from repro.core.memory import PAGE_SIZE
from repro.rack import FaultKind
from repro.rack.memory import UncorrectableMemoryError


def _translate(rig, box, vaddr):
    return box.aspace.page_table.try_translate(rig.c0, vaddr).frame_addr


@pytest.mark.chaos
class TestSelfHealingPipeline:
    def test_campaign_exercises_every_stage(self):
        rig = build_rig()
        kernel = rig.kernel

        # app A: replicated (criticality 2) -> repairs come from the standby
        box_a = kernel.boxes.create_box(rig.c0, "replicated", criticality=2)
        va_a = box_a.aspace.mmap(rig.c0, 2 * PAGE_SIZE)
        box_a.aspace.write(rig.c0, va_a, b"replica-protected " * 100)
        box_a.aspace.write(rig.c0, va_a + PAGE_SIZE, b"ce-magnet " * 64)
        kernel.replicator.enable(box_a)
        kernel.replicator.sync(rig.c0, box_a)

        # app B: checkpoint-only (criticality 1) -> repairs come from the snapshot
        box_b = kernel.boxes.create_box(rig.c0, "checkpointed", criticality=1)
        va_b = box_b.aspace.mmap(rig.c0, 2 * PAGE_SIZE)
        box_b.aspace.write(rig.c0, va_b, b"checkpoint-protected " * 80)
        kernel.boxes.snapshot(rig.c0, box_b)

        frame_a = _translate(rig, box_a, va_a)
        frame_b = _translate(rig, box_b, va_b)
        ce_target = _translate(rig, box_a, va_a + PAGE_SIZE)

        campaign = ChaosCampaign(
            name="pipeline-e2e",
            seed=99,
            events=(
                # stage 1+2: CE density on one page feeds monitor -> predictor
                event("ce_storm", at_step=0, count=24, targets=[ce_target]),
                # stage 3+4: latent UEs on protected pages must be repaired
                event("ue", at_step=1, addr=frame_a + 100),
                event("ue", at_step=1, addr=frame_b + 200),
                # stage 5: kill the apps' home node, survivors recover
                event("node_crash", at_step=3, node=0),
                event("node_restart", at_step=4, node=0),
            ),
        )

        surfaced = []
        crash_reports = []

        def workload(step, ctx):
            if not rig.machine.nodes[0].alive and not crash_reports:
                crash_reports.append(kernel.recovery.handle_node_crash(ctx, dead_node=0))
            for box, va in ((box_a, va_a), (box_b, va_b)):
                if box.failed:
                    continue
                try:
                    frame = box.aspace.page_table.try_translate(ctx, va)
                    if frame is not None:
                        ctx.invalidate(frame.frame_addr, PAGE_SIZE)
                    box.aspace.read(ctx, va, PAGE_SIZE)
                except UncorrectableMemoryError as exc:
                    surfaced.append(exc)

        runner = CampaignRunner(kernel)
        report = runner.run(
            campaign,
            workload=workload,
            steps=6,
            invariants=[boxes_recovered(), survivor_liveness(min_alive=2)],
        )
        assert report.violations == []

        # monitor saw the storm
        assert len(kernel.machine.faults.log.events(FaultKind.CORRECTABLE)) >= 24
        # predictor flagged the CE-dense page and the scrubber evacuated it
        assert kernel.scrubber.stats.evacuated >= 1
        assert ce_target in kernel.scrubber.stats.evacuations
        assert ce_target in kernel.memory.quarantined_frames
        # both UEs were repaired in place, each from its own redundancy tier
        assert surfaced == []
        assert kernel.repair.stats.by_source.get("partial-replica", 0) >= 1
        assert kernel.repair.stats.by_source.get("checkpoint", 0) >= 1
        assert len(rig.machine.faults.log.events(FaultKind.REPAIR)) >= 2
        # crash recovery ran on the survivor and both boxes came back
        assert crash_reports and crash_reports[0].blast_radius_boxes == 2
        assert not kernel.boxes.failed_boxes()
        # the replicated app failed over to its standby copy
        ctx1 = rig.machine.context(1)
        assert box_a.aspace.read(ctx1, va_a, 18) == b"replica-protected "
        assert box_b.aspace.read(ctx1, va_b, 21) == b"checkpoint-protected "
        # operator view reflects the healing work
        assert kernel.repair.stats.repaired >= 2 and kernel.scrubber.stats.evacuated >= 1

"""Invariant checkers for chaos campaigns.

Each checker is a callable ``(runner) -> Optional[str]`` returning a
violation message (or ``None`` when the invariant holds).  The runner
evaluates them after the schedule finishes, with fault injection masked
so the probes themselves cannot perturb the rack.  Factories below
close over expectations captured *before* the campaign — the whole
point is comparing post-chaos reality against pre-chaos commitments.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..core.fs.metadata import FileNotFound
from ..rack.memory import UncorrectableMemoryError

Invariant = Callable[[object], Optional[str]]


def committed_files_intact(expected: Dict[str, bytes]) -> Invariant:
    """Committed (fsync'd) file contents must survive the campaign.

    ``expected`` maps path -> bytes as they stood at the last fsync.
    Reads go through FlacFS from a surviving node; a changed byte, a
    missing file, or an unrepairable UE on the read path all count as
    violations.
    """

    def check(runner) -> Optional[str]:
        kernel = runner.kernel
        if kernel is None:
            return "committed_files_intact needs a kernel"
        ctx = runner._alive_ctx()
        if ctx is None:
            return "committed_files_intact: no surviving node to read from"
        for path, want in sorted(expected.items()):
            try:
                fd = kernel.fs.open(ctx, path)
                got = kernel.fs.read(ctx, fd, 0, len(want))
                kernel.fs.close(ctx, fd)
            except FileNotFound:
                return f"committed file lost: {path}"
            except UncorrectableMemoryError as exc:
                return f"committed file unreadable: {path} ({exc})"
            if got != want:
                bad = min(len(got), len(want))
                for i, (a, b) in enumerate(zip(got, want)):
                    if a != b:
                        bad = i
                        break
                return f"committed data corrupt: {path} first diff at byte {bad}"
        return None

    return check


def region_bytes_intact(rack_addr: int, expected: bytes) -> Invariant:
    """A raw global-memory range must read back exactly as committed."""

    def check(runner) -> Optional[str]:
        ctx = runner._alive_ctx()
        if ctx is None:
            return f"region {rack_addr:#x}: no surviving node to read from"
        try:
            got = ctx.load(rack_addr, len(expected), bypass_cache=True)
        except UncorrectableMemoryError as exc:
            return f"region {rack_addr:#x} unreadable: {exc}"
        if got != expected:
            return f"region {rack_addr:#x} corrupt"
        return None

    return check


def boxes_recovered() -> Invariant:
    """Every fault box must be healthy (failed boxes recovered) at the end."""

    def check(runner) -> Optional[str]:
        kernel = runner.kernel
        if kernel is None:
            return "boxes_recovered needs a kernel"
        failed = kernel.boxes.failed_boxes()
        if failed:
            names = ",".join(str(b.box_id) for b in failed)
            return f"unrecovered fault boxes: {names}"
        return None

    return check


def survivor_liveness(min_alive: int = 1, probe_addr: Optional[int] = None) -> Invariant:
    """At least ``min_alive`` nodes are up and can still reach global memory."""

    def check(runner) -> Optional[str]:
        machine = runner.machine
        alive = [n for n, node in sorted(machine.nodes.items()) if node.alive]
        if len(alive) < min_alive:
            return f"only {len(alive)} nodes alive, need {min_alive}"
        addr = probe_addr if probe_addr is not None else machine.global_base
        for node_id in alive:
            try:
                machine.load(node_id, addr, 8, bypass_cache=True)
            except UncorrectableMemoryError:
                return f"node {node_id} alive but probe page {addr:#x} is poisoned"
            except Exception as exc:  # severed fabric, protection, ...
                return f"node {node_id} cannot reach global memory: {exc}"
        return None

    return check

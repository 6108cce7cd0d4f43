"""Invariant checkers for chaos campaigns.

Each checker is a callable ``(runner) -> Optional[str]`` returning a
violation message (or ``None`` when the invariant holds).  The runner
evaluates them after the schedule finishes, with fault injection masked
so the probes themselves cannot perturb the rack.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..rack.interconnect import InterconnectError
from ..rack.memory import MemoryError_, UncorrectableMemoryError

Invariant = Callable[[object], Optional[str]]


def boxes_recovered() -> Invariant:
    """Every fault box must be healthy (failed boxes recovered) at the end."""

    def check(runner) -> Optional[str]:
        failed = runner.kernel.boxes.failed_boxes()
        if failed:
            names = ",".join(str(b.box_id) for b in failed)
            return f"unrecovered fault boxes: {names}"
        return None

    return check


def survivor_liveness(min_alive: int = 1) -> Invariant:
    """At least ``min_alive`` nodes are up and can still reach global memory."""

    def check(runner) -> Optional[str]:
        machine = runner.machine
        alive = [n for n, node in sorted(machine.nodes.items()) if node.alive]
        if len(alive) < min_alive:
            return f"only {len(alive)} nodes alive, need {min_alive}"
        addr = machine.global_base
        for node_id in alive:
            try:
                machine.load(node_id, addr, 8, bypass_cache=True)
            except UncorrectableMemoryError:
                return f"node {node_id} alive but probe page {addr:#x} is poisoned"
            except (InterconnectError, MemoryError_) as exc:  # severed fabric, protection
                return f"node {node_id} cannot reach global memory: {exc}"
        return None

    return check

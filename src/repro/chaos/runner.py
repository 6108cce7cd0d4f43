"""The campaign runner: applies a chaos schedule against a live rack.

The runner interleaves workload steps with due chaos events, gives the
kernel's daemons a turn on its event heap after each step, evaluates the
campaign's invariants at the end (with fault injection masked so the
checks themselves cannot mutate the rack), and emits a deterministic
journal: same (campaign, workload, rig seed) ⇒ byte-identical journal
and digest.  Simulated clocks and the seeded campaign RNG are the only
time/randomness sources, so there is nothing host-dependent to leak in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..rack.faults import FaultLog
from ..rack.machine import RackMachine
from ..rack.params import GLOBAL_BASE
from ..telemetry import TELEMETRY as _TEL, span as _span

_PAGE = 4096
_LINE = 64
#: bytes the scrubber walks after each workload step
SCRUB_BYTES_PER_STEP = 1 << 20


@dataclass(frozen=True)
class FiredEvent:
    step: int
    at_ns: float
    action: str
    detail: str

    def line(self) -> str:
        return f"step={self.step} t={self.at_ns:.1f} action={self.action} {self.detail}"


@dataclass
class CampaignReport:
    """What a campaign run produced: fired events, violations, journal."""

    campaign: str
    seed: int
    steps_run: int
    fired: List[FiredEvent] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    journal: str = ""


def render_fault_log(log: FaultLog) -> str:
    """Deterministic one-line-per-event rendering of the fault log.

    Includes injected faults *and* REPAIR events, so two runs agree on
    the journal only if injection and self-healing behaved identically.
    """
    lines = []
    for ev in log.events():
        addr = f"{ev.addr:#x}" if ev.addr is not None else "-"
        node = ev.node_id if ev.node_id is not None else "-"
        lines.append(f"{ev.kind.value} t={ev.time_ns:.1f} addr={addr} node={node} {ev.detail}")
    return "\n".join(lines)


class JournalTail:
    """How every chaos journal ends: the digest of the registry counters
    the run moved (telemetry on), then the fault log.

    Opened *before* the run so the digest covers only this run's
    monotone deltas — deterministic even when the global registry
    carries metrics from earlier runs in the process.
    """

    def __init__(self, machine: RackMachine) -> None:
        self.machine = machine
        self._baseline = _TEL.registry.counter_baseline() if _TEL.enabled else None

    def lines(self) -> List[str]:
        lines = []
        if self._baseline is not None:
            lines.append(f"telemetry digest={_TEL.registry.delta_digest(self._baseline)}")
        lines.append("-- fault log --")
        lines.append(render_fault_log(self.machine.faults.log))
        return lines


class CampaignRunner:
    """Drives one :class:`~repro.chaos.schedule.ChaosCampaign` on a kernel.

    ``workload(step, ctx)`` is called once per step with the step index
    and a context on the lowest-numbered live node; chaos events whose
    trigger has come due fire right after, in schedule order.  Then the
    daemons take their turn as events on ``kernel.events``: with ``heal``
    on, the scrubber walks :data:`SCRUB_BYTES_PER_STEP`
    (detect-before-consume), and an attached health engine ticks,
    journaling its transitions and, at the end, invariant violations.
    """

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.machine = kernel.machine
        self.health = kernel.health

    # -- the run loop -------------------------------------------------------------

    def run(
        self,
        campaign,
        workload: Optional[Callable[[int, object], None]] = None,
        steps: int = 32,
        invariants: Sequence[Callable[["CampaignRunner"], Optional[str]]] = (),
        heal: bool = True,
    ) -> CampaignReport:
        rng = random.Random(campaign.seed)
        pending = list(campaign.events)
        report = CampaignReport(campaign=campaign.name, seed=campaign.seed, steps_run=0)
        lines = [f"campaign={campaign.name} seed={campaign.seed} steps={steps}"]
        tail = JournalTail(self.machine)

        for step in range(steps):
            ctx = self.kernel.alive_context()
            if ctx is None:
                lines.append(f"step={step} halt=no-survivors")
                break
            if workload is not None:
                with _span("chaos.step", ctx=ctx, step=step):
                    workload(step, ctx)
            now = self.machine.max_time()
            for ev in list(pending):
                if not ev.due(now, step):
                    continue
                pending.remove(ev)
                with _span(f"chaos.event.{ev.action}", ctx=ctx, step=step):
                    detail = self._apply(ev, rng)
                fired = FiredEvent(step=step, at_ns=now, action=ev.action, detail=detail)
                report.fired.append(fired)
                lines.append(fired.line())
            self._background_turn(ctx, step, heal, lines)
            report.steps_run = step + 1

        # Invariants run with injection masked: a probe read must not
        # roll new faults into the rack it is judging.
        was_enabled = self.machine.faults.enabled
        self.machine.faults.enabled = False
        try:
            for check in invariants:
                violation = check(self)
                if violation:
                    report.violations.append(violation)
                    lines.append(f"violation {violation}")
                    if self.health is not None:
                        lines.append(self.health.invariant_failed(violation))
        finally:
            self.machine.faults.enabled = was_enabled

        lines.extend(tail.lines())
        report.journal = "\n".join(lines) + "\n"
        return report

    def _background_turn(self, ctx, step: int, heal: bool, lines: List[str]) -> None:
        """The scrubber quantum, then the health tick, as events on the
        kernel's heap, dispatched at its current time in that order."""
        events = self.kernel.events

        def _heal() -> None:
            if heal:
                self.kernel.scrubber.step(ctx, max_bytes=SCRUB_BYTES_PER_STEP)

        def _health() -> None:
            if self.health is not None:
                for health_line in self.health.tick(self.machine.max_time()):
                    lines.append(f"step={step} {health_line}")

        events.at(events.now_ns, _heal)
        events.at(events.now_ns, _health)
        events.run(until_ns=events.now_ns)

    # -- applying events -----------------------------------------------------------

    def _apply(self, ev, rng: random.Random) -> str:
        handler = getattr(self, f"_do_{ev.action}", None)
        assert handler is not None, f"schedule validated action {ev.action!r} but no handler"
        return handler(ev, rng)

    def _pick_addr(self, ev, rng: random.Random) -> int:
        targets = ev.param("targets")
        if targets:
            page = rng.choice(sorted(targets))
            return page + rng.randrange(_PAGE)
        return GLOBAL_BASE + rng.randrange(self.machine.global_size)

    def _inject_ue_at(self, rack_addr: int) -> None:
        offset = rack_addr - GLOBAL_BASE
        self.machine.faults.inject_ue(
            self.machine.global_mem,
            offset,
            rack_addr=rack_addr,
            now_ns=self.machine.max_time(),
        )

    def _do_ue(self, ev, rng) -> str:
        addr = ev.param("addr")
        if addr is None:
            addr = self._pick_addr(ev, rng)
        self._inject_ue_at(addr)
        return f"addr={addr:#x}"

    def _do_ue_storm(self, ev, rng) -> str:
        count = ev.param("count", 4)
        addrs = [self._pick_addr(ev, rng) for _ in range(count)]
        for addr in addrs:
            self._inject_ue_at(addr)
        return f"count={count} addrs=" + ",".join(f"{a:#x}" for a in addrs)

    def _do_ce_storm(self, ev, rng) -> str:
        count = ev.param("count", 8)
        node = ev.param("node", -1)
        addrs = [self._pick_addr(ev, rng) for _ in range(count)]
        now = self.machine.max_time()
        for addr in addrs:
            self.machine.faults.inject_ce(addr, node_id=node, now_ns=now)
        return f"count={count} pages=" + ",".join(f"{a & ~(_PAGE - 1):#x}" for a in addrs)

    def _do_correlated_lines(self, ev, rng) -> str:
        lines = ev.param("lines", 4)
        stride = ev.param("stride", _PAGE)
        base = ev.param("base")
        if base is None:
            span = max(1, self.machine.global_size - lines * stride)
            base = GLOBAL_BASE + (rng.randrange(span) & ~(_LINE - 1))
        for i in range(lines):
            self._inject_ue_at(base + i * stride)
        return f"base={base:#x} lines={lines} stride={stride}"

    def _do_link_down(self, ev, rng) -> str:
        node = ev.param("node", 0)
        self.machine.sever_node_link(node, up=False)
        return f"node={node}"

    def _do_link_up(self, ev, rng) -> str:
        node = ev.param("node", 0)
        self.machine.sever_node_link(node, up=True)
        return f"node={node}"

    def _do_node_crash(self, ev, rng) -> str:
        node = ev.param("node")
        if node is None:
            alive = [n for n, nd in sorted(self.machine.nodes.items()) if nd.alive]
            node = rng.choice(alive)
        self.machine.crash_node(node)
        return f"node={node}"

    def _do_node_restart(self, ev, rng) -> str:
        node = ev.param("node")
        if node is None:
            dead = [n for n, nd in sorted(self.machine.nodes.items()) if not nd.alive]
            if not dead:
                return "node=- (none dead)"
            node = dead[0]
        self.machine.restart_node(node)
        return f"node={node}"

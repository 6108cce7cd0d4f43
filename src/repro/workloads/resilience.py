"""Fault-tolerant request path over the open-loop traffic engine.

The base :class:`~repro.workloads.traffic.TrafficEngine` assumes the
rack cooperates: a tenant's node is alive, its fabric port is up, and
every admitted batch executes.  Under the chaos schedules of
:mod:`repro.chaos` that assumption dies mid-run — and an open-loop
fleet does not stop arriving because a node crashed.  The base engine
counts a batch that meets a fault as ``failed`` and goes on; this module
is the request path that survives it, running every policy below at the
module constants every root runs (:class:`ResilienceSpec`):

* **retries** — batch attempts that die on a crashed node or severed
  link are retried on a seeded exponential-backoff schedule
  (:class:`~repro.core.backoff.BackoffPolicy`, deterministic jitter),
  budget-capped by a per-tenant token bucket so retry storms cannot
  amplify an outage;
* **circuit breakers** — per (tenant, target-node) closed→open→half-open
  state machines over an error-rate window, tripped instantly by the
  machine's crash hook and by health-engine SLO burn alerts, routing
  traffic to the replica (failover) or shedding it (degraded mode)
  instead of paying the failure-detection latency on every batch;
* **chaos-under-load** — :class:`ChaosUnderLoad` interleaves a seeded
  :class:`~repro.chaos.schedule.ChaosCampaign` with the traffic
  engine's batch windows on *one* event heap and journals everything:
  same seed, byte-identical journal and digest.

Determinism contract: every resilience decision is a pure function of
simulated state (clocks, seeded RNG streams, deterministic jitter
hashes), so a run replays byte-identically.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..chaos.runner import CampaignRunner, JournalTail
from ..core.backoff import BackoffPolicy
from ..core.events import EventCore
from ..rack.params import finite, refuse, whole
from .traffic import (
    ARRIVAL,
    FAILED,
    FAILOVERS,
    FAILURES,
    REQUEST_PATH,
    RETRIES,
    SHED,
    TrafficEngine,
    TrafficReport,
    _TenantState,
)

# -- the policy constants ------------------------------------------------------
#
# Every root runs these values; a test that needs another monkeypatches the
# constant.  The code reads each one where it decides, so a patch takes effect
# at once (the breaker's window length at its construction).

#: the wait between batch attempts, charged to the request path as queueing
#: delay (never to a dead node's clock); ``max_attempts`` caps a batch's retries
RETRY_BACKOFF = BackoffPolicy(base_ns=50_000.0, multiplier=2.0, max_attempts=3, jitter=0.5)
#: the per-tenant retry token bucket: :data:`RETRY_BURST` capacity, refilled
#: this many tokens per offered request — it bounds the *fraction* of traffic
#: that may be retried, the standard guard against retry amplification
RETRY_BUDGET_RATIO = 0.2
RETRY_BURST = 4_096
#: the error-rate breaker per (tenant, target node): outcomes in its window,
#: the failure share that opens it once the window holds the minimum volume,
#: and how long it stays open before a half-open probe
BREAKER_WINDOW = 8
BREAKER_FAILURE_THRESHOLD = 0.5
BREAKER_MIN_VOLUME = 4
BREAKER_COOLDOWN_NS = 5e6
#: charged cost of *discovering* a target is unreachable (the connect-timeout
#: analogue) before failing over or retrying
FAILURE_DETECT_NS = 20_000.0


@dataclass(frozen=True)
class ResilienceSpec:
    """Retry, breaker and failover for every tenant, at the module constants;
    the base :class:`~repro.workloads.traffic.TrafficEngine` is the run
    without them."""

    #: alternate node for failover (the tenant's slab is in global memory,
    #: so any live node can serve it); ``None``: none, so once the
    #: primary's breaker opens its batches are shed
    replica_node: Optional[int] = None

    def __post_init__(self) -> None:
        node = self.replica_node
        if not (node is None or whole(node)):
            refuse(self, "replica_node", "None or a node id (an integer >= 0)")


def default_spec(replica_node: Optional[int] = None) -> ResilienceSpec:
    """The on arm, failing over to ``replica_node``."""
    return ResilienceSpec(replica_node=replica_node)


# -- circuit breaker -----------------------------------------------------------


class CircuitBreaker:
    """Closed → open → half-open error-rate breaker for one target.

    *Closed*: outcomes feed a sliding window of :data:`BREAKER_WINDOW`;
    once :data:`BREAKER_MIN_VOLUME` outcomes are in and the failure rate
    reaches :data:`BREAKER_FAILURE_THRESHOLD`, the breaker opens.
    *Open*: requests are refused (routed elsewhere or shed) until
    :data:`BREAKER_COOLDOWN_NS` elapses.  *Half-open*: exactly one
    probe batch is admitted; success closes the breaker, failure
    re-opens it for another cooldown.  :meth:`trip` force-opens on
    out-of-band evidence (node crash hook, SLO burn alert).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    __slots__ = ("tenant", "target", "state", "window", "opened_at_ns", "opens", "_probing")

    def __init__(self, tenant: str, target: int) -> None:
        self.tenant = tenant
        self.target = target
        self.state = self.CLOSED
        self.window: deque = deque(maxlen=BREAKER_WINDOW)
        self.opened_at_ns = 0.0
        #: lifetime count of transitions into OPEN
        self.opens = 0
        self._probing = False

    def _transition(self, prev: str, now_ns: float, reason: str) -> dict:
        """The record of the transition just made (``prev`` → ``state``).

        ``t_ns`` is kept at the journal's 0.1 ns resolution, so a dump
        and a journal line (:func:`render_transition`) name one instant.
        """
        return {"tenant": self.tenant, "target": self.target, "from": prev,
                "to": self.state, "t_ns": round(now_ns, 1), "reason": reason}

    def _open(self, now_ns: float, reason: str) -> dict:
        prev = self.state
        self.state = self.OPEN
        self.opened_at_ns = now_ns
        self.opens += 1
        self.window.clear()
        self._probing = False
        return self._transition(prev, now_ns, reason)

    def allow(self, now_ns: float) -> bool:
        """May a batch be routed at this target right now?"""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if now_ns - self.opened_at_ns < BREAKER_COOLDOWN_NS:
                return False
            self.state = self.HALF_OPEN
            self._probing = False
        # half-open: admit exactly one probe until its outcome lands
        if self._probing:
            return False
        self._probing = True
        return True

    def record(self, now_ns: float, ok: bool) -> Optional[dict]:
        """Feed one batch outcome; returns a transition record or None."""
        if self.state == self.HALF_OPEN:
            if ok:
                prev = self.state
                self.state = self.CLOSED
                self.window.clear()
                self._probing = False
                return self._transition(prev, now_ns, "probe-ok")
            return self._open(now_ns, "probe-failed")
        if self.state == self.OPEN:
            return None
        self.window.append(ok)
        if len(self.window) >= BREAKER_MIN_VOLUME:
            failures = self.window.count(False)
            if failures / len(self.window) >= BREAKER_FAILURE_THRESHOLD:
                return self._open(now_ns, "error-rate")
        return None

    def trip(self, now_ns: float, reason: str) -> Optional[dict]:
        """Force open on external evidence; no-op when already open."""
        if self.state == self.OPEN:
            return None
        return self._open(now_ns, reason)


def render_transition(record: dict) -> str:
    """A breaker transition record as its journal line — the format the
    chaos journals and the flight recorder's postmortem are pinned on."""
    return (
        f"breaker tenant={record['tenant']} target={record['target']} "
        f"{record['from']}->{record['to']} t={record['t_ns']:.1f} "
        f"reason={record['reason']}"
    )


# -- per-tenant runtime state --------------------------------------------------


@dataclass
class _ResilienceState:
    """One tenant's on-arm state."""

    #: candidate targets in routing preference order: the primary, then the
    #: replica when there is one
    targets: Tuple[int, ...]
    #: one breaker per target
    breakers: Dict[int, CircuitBreaker]
    #: the retry token bucket
    tokens: float
    #: per-target single-server model (the primary mirrors
    #: ``_TenantState.busy_until_ns``)
    busy_by_node: Dict[int, float] = field(default_factory=dict)


# -- the engine ----------------------------------------------------------------


class ResilientTrafficEngine(TrafficEngine):
    """The traffic engine with the fault-tolerant request path wired in.

    ``resilience`` runs retry, breaker and failover for every tenant.

    ``crash_detection`` wires the machine's crash hook into the
    breakers (fail-fast on out-of-band evidence).  Turning it off — the
    incident benchmark's detection-off arm — leaves mitigation with
    only inline evidence: breakers must *infer* a dead node from failed
    attempts, paying the error-rate window before failing over.
    """

    def __init__(
        self,
        kernel,
        tenants,
        resilience: ResilienceSpec,
        crash_detection: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(kernel, tenants, **kwargs)
        #: per-tenant policy state
        self._rstate: Dict[str, _ResilienceState] = {
            name: self._build_state(st, resilience.replica_node)
            for name, st in self.tenants.items()
        }
        self.crash_detection = bool(crash_detection)
        if self.crash_detection:
            self.machine.on_crash(self._on_node_crash)

    def _build_state(self, st: _TenantState, replica: Optional[int]) -> _ResilienceState:
        primary = st.spec.node
        targets: Tuple[int, ...] = (primary,)
        if replica is not None:
            if replica not in self.machine.nodes:
                raise ValueError(
                    f"tenant {st.spec.name!r}: replica node {replica} not in rack"
                )
            if replica == primary:
                raise ValueError(
                    f"tenant {st.spec.name!r}: replica must differ from primary"
                )
            targets = (primary, replica)
        return _ResilienceState(
            targets=targets,
            breakers={target: CircuitBreaker(st.spec.name, target) for target in targets},
            tokens=float(RETRY_BURST),
        )

    # -- breaker plumbing ------------------------------------------------------

    def _note_transition(self, record: Optional[dict]) -> None:
        """Keep a breaker's transition record (``None``: it did not move)."""
        if record is not None:
            self.breaker_events.append(record)

    def _breaker_outcome(
        self, rs: _ResilienceState, target: int, now_ns: float, ok: bool
    ) -> None:
        br = rs.breakers[target]
        self._note_transition(br.record(now_ns, ok))

    def _trip(self, node: int, now_ns: float, reason: str, names) -> None:
        """Force open the breaker each of ``names`` holds on ``node``."""
        for name in names:
            br = self._rstate[name].breakers.get(node)
            if br is not None:
                self._note_transition(br.trip(now_ns, reason))

    def _on_node_crash(self, node_id: int, now_ns: float) -> None:
        """Machine crash hook: fail fast — open the breakers immediately
        instead of waiting for an error-rate window to fill."""
        self._trip(node_id, now_ns, "node-crash", self._rstate)

    def feed_health_alerts(self, health) -> None:
        """Trip breakers from the health engine's active SLO burn alerts
        (the alert stream is the breaker's out-of-band evidence)."""
        if health is None:
            return
        for (objective, node), _alert in sorted(health.slo.active.items()):
            self._trip(node, self.events.now_ns, f"slo:{objective}", sorted(self._rstate))

    def _route(self, rs: _ResilienceState, now_ns: float) -> Optional[int]:
        """First candidate target whose breaker admits traffic."""
        for target in rs.targets:
            if rs.breakers[target].allow(now_ns):
                return target
        return None

    # -- the overridden seam ---------------------------------------------------

    def _run_admitted(self, st, arrivals, key_idx, is_get) -> None:
        """The base sequence with each policy's step in place:
        route → attempt loop → queue model → record."""
        rs = self._rstate[st.spec.name]
        n = len(arrivals)
        now = self.events.now_ns
        rs.tokens = min(float(RETRY_BURST), rs.tokens + RETRY_BUDGET_RATIO * n)
        target = self._route(rs, now)
        if target is None:
            # degraded mode: every target's breaker is open — shed at
            # the admission path instead of queueing doomed work
            self._count(st, SHED, n)
            return
        served = self._attempt_loop(st, rs, key_idx, is_get, target, now)
        if served is None:
            return
        target, n_bytes, charged, penalty = served
        # queue model on the serving target: each target is its own single
        # server (the primary's is the base engine's), and it could not
        # start before detection + backoff ended
        busy = rs.busy_by_node.get(
            target, st.busy_until_ns if target == st.spec.node else 0.0
        )
        if penalty:
            busy = max(busy, float(arrivals[0])) + penalty
        latency = self._queue_model(st, arrivals, charged, busy)
        rs.busy_by_node[target] = st.busy_until_ns
        self._record(st, arrivals, latency, n_bytes)

    def _attempt_loop(self, st, rs, key_idx, is_get, target, now):
        """Attempt the batch on ``target``, then — while retries are left,
        the token bucket holds the batch and a breaker admits it — on
        whatever :meth:`_route` offers next (batch granularity: a node or
        link failure takes out the whole batch's target at once).

        Returns ``(serving target, n_bytes, charged_ns, penalty_ns)``;
        ``penalty_ns`` is the detection + backoff time the batch head
        absorbed.  ``None`` means the batch was lost, and counted.
        """
        n = len(key_idx)
        penalty = 0.0
        attempt = 0
        while True:
            try:
                n_bytes, charged = self._attempt(
                    st, key_idx, is_get, target, attempt=attempt
                )
            except FAILURES:
                self._breaker_outcome(rs, target, now, ok=False)
                penalty += FAILURE_DETECT_NS
                can_retry = attempt < RETRY_BACKOFF.max_attempts and rs.tokens >= n
                next_target = self._route(rs, now) if can_retry else None
                if next_target is None:
                    self._count(st, FAILED, n)
                    return None
                rs.tokens -= n
                penalty += RETRY_BACKOFF.delay_ns(attempt, st.spec.name, target)
                self._count(st, RETRIES, n)
                attempt += 1
                target = next_target
            else:
                self._breaker_outcome(rs, target, now, ok=True)
                if target != st.spec.node:
                    self._count(st, FAILOVERS, n)
                return target, n_bytes, charged, penalty

    def finalize(self) -> None:
        """Nothing to settle: :meth:`run` returns with no batch in flight
        (every attempt runs inside its batch's wake), so a report is final
        as it stands.  The perf tracer's ``TABLE`` binds this name."""


# -- chaos under load ----------------------------------------------------------


@dataclass
class ChaosLoadReport:
    """One chaos-under-load run: the traffic report plus the journal."""

    campaign: str
    seed: int
    traffic: TrafficReport
    fired: List[str]
    breaker_transitions: List[str]
    journal: str

    @property
    def digest(self) -> str:
        """SHA-256 of the journal — the byte-identity witness."""
        return hashlib.sha256(self.journal.encode("utf-8")).hexdigest()


class ChaosUnderLoad:
    """Interleave a seeded chaos campaign with open-loop traffic.

    Unlike :class:`~repro.chaos.runner.CampaignRunner` (which steps a
    workload callback and polls triggers between steps), this runner
    puts *everything on one event heap*: chaos events are scheduled at
    their ``at_ns`` triggers, the kernel's scrubber patrol and health
    ticks recur via :meth:`FlacOS.start_patrols
    <repro.core.kernel.FlacOS.start_patrols>`, breaker feeds run on a
    control tick, and the traffic engine pumps the heap.  Faults
    therefore land *mid-run, between batch windows*, exactly where the
    heap ordering puts them — deterministically.

    Every chaos event must carry an ``at_ns`` trigger (access- and
    step-based triggers belong to the step-loop runner).  Same
    (campaign, engine seed) ⇒ byte-identical journal and digest.
    """

    def __init__(
        self,
        kernel,
        engine: TrafficEngine,
        campaign,
        control_period_ns: float = 1e6,
    ) -> None:
        for ev in campaign.events:
            if ev.at_ns is None:
                raise ValueError(
                    f"chaos-under-load needs at_ns triggers; event "
                    f"{ev.action!r} has {ev.trigger_str()!r}"
                )
        self.control_period_ns = control_period_ns
        if not (finite(control_period_ns) and control_period_ns > 0):
            refuse(self, "control_period_ns", "a finite number > 0")
        self.kernel = kernel
        self.engine = engine
        self.campaign = campaign
        self.health = kernel.health
        self.events = kernel.events
        # reuse the step-runner's action handlers + seeded RNG contract
        self._runner = CampaignRunner(kernel)
        # flight-recorder sync cursors (see sync_recorder)
        self._breaker_synced = 0
        self._res_last: Dict[str, dict] = {}

    def run(
        self,
        duration_ns: Optional[float] = None,
        max_requests: Optional[int] = None,
    ) -> ChaosLoadReport:
        rng = random.Random(self.campaign.seed)
        lines: List[str] = [
            f"chaos-under-load campaign={self.campaign.name} "
            f"seed={self.campaign.seed}"
        ]
        fired: List[str] = []
        tail = JournalTail(self.kernel.machine)
        breaker_mark = len(self.engine.breaker_events)

        def _sink(line: str) -> None:
            lines.append(f"t={self.events.now_ns:.1f} {line}")

        chaos_events = []
        for ev in self.campaign.events:
            def _fire(ev=ev) -> None:
                detail = self._runner._apply(ev, rng)
                line = f"t={self.events.now_ns:.1f} action={ev.action} {detail}"
                lines.append(line)
                fired.append(line)

            chaos_events.append(self.events.at(ev.at_ns, _fire))

        self.kernel.start_patrols(self.control_period_ns, sink=_sink)
        control = self.events.every(self.control_period_ns, self._control_tick)
        try:
            report = self.engine.run(
                duration_ns=duration_ns, max_requests=max_requests
            )
        finally:
            control.cancel()
            self.kernel.stop_patrols()
            for ev in chaos_events:
                EventCore.cancel(ev)
        self.sync_recorder()
        unfired = len(self.campaign.events) - len(fired)
        if unfired:
            lines.append(f"unfired={unfired}")
        breakers = [render_transition(r) for r in self.engine.breaker_events[breaker_mark:]]
        if breakers:
            lines.append("-- breaker transitions --")
            lines.extend(breakers)
        lines.append(f"traffic digest={report.digest()}")
        lines.extend(tail.lines())
        return ChaosLoadReport(
            campaign=self.campaign.name,
            seed=self.campaign.seed,
            traffic=report,
            fired=fired,
            breaker_transitions=breakers,
            journal="\n".join(lines) + "\n",
        )

    def _control_tick(self) -> None:
        """Feed health alerts into the engine's breakers (if it has any) each period."""
        if isinstance(self.engine, ResilientTrafficEngine):
            self.engine.feed_health_alerts(self.health)
        self.sync_recorder()

    def sync_recorder(self) -> None:
        """Mirror the engine's mitigation state into the flight recorder.

        Pushes breaker transitions not yet recorded and a per-tenant
        resilience-counter sample whenever the counters moved since the
        last sync — so a crash dump shows *mitigation in flight*, not
        just the detection side.  Idempotent; safe on base engines.
        """
        if self.health is None:
            return
        rec = self.health.recorder
        events = self.engine.breaker_events
        for event in events[self._breaker_synced:]:
            rec.record_breaker(event)
        self._breaker_synced = len(events)
        now = self.events.now_ns
        sampled = ARRIVAL + REQUEST_PATH
        for name in sorted(self.engine.tenants):
            counts = self.engine.tenants[name].counts
            sample = {o.name: counts[o.counter] for o in sampled}
            if self._res_last.get(name) == sample:
                continue
            self._res_last[name] = sample
            rec.record_resilience({"t_ns": now, "tenant": name, **sample})


"""Fault-tolerant request path over the open-loop traffic engine.

The base :class:`~repro.workloads.traffic.TrafficEngine` assumes the
rack cooperates: a tenant's node is alive, its fabric port is up, and
every admitted batch executes.  Under the chaos schedules of
:mod:`repro.chaos` that assumption dies mid-run — and an open-loop
fleet does not stop arriving because a node crashed.  This module is
the request path that survives:

* **deadlines** — a per-request latency budget; requests that blow it
  are counted ``timed_out`` and excluded from the served population
  (the work was still charged: the substrate did it before the overrun
  was observable, same contract as :class:`repro.core.ipc.rpc.RpcTimeout`);
* **retries** — batch attempts that die on a crashed node or severed
  link are retried on a seeded exponential-backoff schedule
  (:class:`~repro.core.backoff.BackoffPolicy`, deterministic jitter),
  budget-capped by a per-tenant token bucket so retry storms cannot
  amplify an outage;
* **hedging** — requests predicted to land past a p99-derived delay are
  duplicated to a replica node; first response wins, the loser is
  cancelled via :meth:`EventCore.cancel <repro.core.events.EventCore.cancel>`;
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
hashes), so ``ResilienceSpec.DISABLED`` reproduces the base engine's
report bit-for-bit and any enabled spec replays byte-identically.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..chaos.runner import CampaignRunner, JournalTail
from ..core.backoff import BackoffPolicy
from ..core.events import EventCore
from ..rack.interconnect import InterconnectError
from ..rack.node import NodeCrashedError
from ..rack.params import finite, refuse, whole
from ..telemetry import TELEMETRY as _TEL
from .traffic import (
    ARRIVAL,
    FAILED,
    FAILOVERS,
    HEDGE_WINS,
    HEDGES,
    REQUEST_PATH,
    RETRIES,
    SHED,
    TIMED_OUT,
    TrafficEngine,
    TrafficReport,
    _TenantState,
)

#: exceptions that mean "the target cannot serve" (retryable/failover)
FAILURES = (NodeCrashedError, InterconnectError)


# -- policies ------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Budget-capped retry of failed batch attempts.

    ``backoff`` prices the wait between attempts (charged to the
    request path as queueing delay, never to a dead node's clock).  The
    token bucket — ``burst`` capacity, refilled ``budget_ratio`` tokens
    per offered request — bounds the *fraction* of traffic that may be
    retried, the standard guard against retry amplification.
    """

    backoff: BackoffPolicy = BackoffPolicy(
        base_ns=50_000.0, multiplier=2.0, max_attempts=3, jitter=0.5
    )
    budget_ratio: float = 0.2
    burst: int = 4_096

    def __post_init__(self) -> None:
        if not 0.0 <= self.budget_ratio <= 1.0:
            raise ValueError(f"budget_ratio must be in [0,1], got {self.budget_ratio}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")


@dataclass(frozen=True)
class HedgePolicy:
    """Tail-latency hedging: duplicate the slowest requests to a replica.

    The hedge delay is ``max(min_delay_ns, p99_ewma * multiplier)``
    where ``p99_ewma`` tracks the tenant's observed batch p99; at most
    ``max_fraction`` of a batch is hedged (worst predicted latencies
    first), so hedging cost is bounded by construction.
    """

    multiplier: float = 1.0
    min_delay_ns: float = 100_000.0
    max_fraction: float = 0.05
    #: EWMA weight of the newest batch p99
    alpha: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 < self.max_fraction <= 1.0:
            raise ValueError(f"max_fraction must be in (0,1], got {self.max_fraction}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0,1], got {self.alpha}")


@dataclass(frozen=True)
class BreakerPolicy:
    """Error-rate circuit breaker per (tenant, target node)."""

    window: int = 8
    failure_threshold: float = 0.5
    min_volume: int = 4
    cooldown_ns: float = 5e6

    def __post_init__(self) -> None:
        if self.window < 1 or self.min_volume < 1:
            raise ValueError("window and min_volume must be >= 1")
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ValueError(
                f"failure_threshold must be in (0,1], got {self.failure_threshold}"
            )


@dataclass(frozen=True)
class ResilienceSpec:
    """One tenant's fault-tolerance configuration.

    Every field defaults to off; ``ResilienceSpec()`` (aka
    :data:`DISABLED`) only changes *failure semantics* — execution
    faults are counted as lost requests instead of unwinding the whole
    run — and is bit-identical to the base engine on a healthy rack.
    """

    deadline_ns: Optional[float] = None
    retry: Optional[RetryPolicy] = None
    hedge: Optional[HedgePolicy] = None
    breaker: Optional[BreakerPolicy] = None
    #: alternate node for failover and hedging (the tenant's slab is in
    #: global memory, so any live node can serve it)
    replica_node: Optional[int] = None
    #: charged cost of *discovering* a target is unreachable (the
    #: connect-timeout analogue) before failing over or retrying
    failure_detect_ns: float = 20_000.0

    def __post_init__(self) -> None:
        # a NaN or negative deadline fails or passes every request silently; a
        # NaN or infinite detection cost poisons the clock it is charged to
        # (every comparison is False for NaN)
        deadline, detect, node = self.deadline_ns, self.failure_detect_ns, self.replica_node
        if not (deadline is None or finite(deadline) and deadline > 0):
            refuse(self, "deadline_ns", "None or a finite number > 0")
        if not (finite(detect) and detect >= 0):
            refuse(self, "failure_detect_ns", "a finite number >= 0")
        if not (node is None or whole(node)):
            refuse(self, "replica_node", "None or a node id (an integer >= 0)")


#: count-losses-only spec: no deadlines, retries, hedges, or breakers
DISABLED = ResilienceSpec()


def default_spec(replica_node: Optional[int] = None) -> ResilienceSpec:
    """The everything-on spec the benchmarks and docs use."""
    return ResilienceSpec(
        retry=RetryPolicy(),
        hedge=HedgePolicy(),
        breaker=BreakerPolicy(),
        replica_node=replica_node,
    )


# -- circuit breaker -----------------------------------------------------------


class CircuitBreaker:
    """Closed → open → half-open error-rate breaker for one target.

    *Closed*: outcomes feed a sliding window; once ``min_volume``
    outcomes are in and the failure rate reaches the threshold, the
    breaker opens.  *Open*: requests are refused (routed elsewhere or
    shed) until ``cooldown_ns`` elapses.  *Half-open*: exactly one
    probe batch is admitted; success closes the breaker, failure
    re-opens it for another cooldown.  :meth:`trip` force-opens on
    out-of-band evidence (node crash hook, SLO burn alert).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    __slots__ = ("policy", "tenant", "target", "state", "window", "opened_at_ns",
                 "opens", "_probing")

    def __init__(self, policy: BreakerPolicy, tenant: str, target: int) -> None:
        self.policy = policy
        self.tenant = tenant
        self.target = target
        self.state = self.CLOSED
        self.window: deque = deque(maxlen=policy.window)
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
            if now_ns - self.opened_at_ns < self.policy.cooldown_ns:
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
        if len(self.window) >= self.policy.min_volume:
            failures = self.window.count(False)
            if failures / len(self.window) >= self.policy.failure_threshold:
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
    spec: ResilienceSpec
    #: candidate targets in routing preference order (primary first)
    targets: Tuple[int, ...]
    breakers: Dict[int, CircuitBreaker] = field(default_factory=dict)
    #: per-target single-server model (the primary mirrors
    #: ``_TenantState.busy_until_ns``)
    busy_by_node: Dict[int, float] = field(default_factory=dict)
    #: retry token bucket (None policy -> unused)
    tokens: float = 0.0
    #: EWMA of observed batch p99 latency, feeds the hedge delay
    p99_ewma: float = 0.0


@dataclass(eq=False)
class _HedgeOp:
    """One in-flight hedge: a primary result racing a replica duplicate.

    Two events sit on the heap — ``primary done`` at the predicted
    primary completion and ``hedge fire`` at arrival + hedge delay.
    Whichever dispatches first resolves the op and cancels the loser
    (the issue's first-response-wins contract).  On a hedge firing, the
    duplicate batch really executes on the replica (charged, VNI
    accounted) and each request keeps the *earlier* of its two
    completions; recorded latencies are patched in place.
    """

    engine: "ResilientTrafficEngine"
    st: _TenantState
    rs: "_ResilienceState"
    #: the batch's recorded latencies — patched in place where the hedge wins
    latency_arr: np.ndarray
    #: the hedged requests: their positions in ``latency_arr``, arrivals, draws
    idx: np.ndarray
    arrivals: np.ndarray
    key_idx: np.ndarray
    is_get: np.ndarray
    fire_ns: float
    #: span id of the batch that launched the hedge (see ``_attempt``)
    parent_span: Optional[int]
    ev_primary: Optional[object] = None
    ev_hedge: Optional[object] = None
    done: bool = False

    def _finish(self) -> None:
        self.done = True
        EventCore.cancel(self.ev_primary)
        EventCore.cancel(self.ev_hedge)
        self.engine._hedge_ops.discard(self)

    def primary_wins(self) -> None:
        """Primary completed before the hedge delay elapsed."""
        if self.done:
            return
        self._finish()  # recorded latencies already hold the primary result

    def fire(self) -> None:
        """Hedge delay elapsed first: launch the replica duplicate."""
        if self.done:
            return
        self._finish()
        engine, st, rs = self.engine, self.st, self.rs
        replica = rs.spec.replica_node
        now = engine.events.now_ns
        k = len(self.idx)
        try:
            n_bytes, charged = engine._attempt(
                st, self.key_idx, self.is_get, replica, span="traffic.hedge",
                parent=self.parent_span, not_before_ns=self.fire_ns, n=k,
            )
        except FAILURES:
            engine._breaker_outcome(rs, replica, now, ok=False)
            return  # primary result stands
        engine._breaker_outcome(rs, replica, now, ok=True)
        svc = max(1.0, charged / k)
        start = max(self.fire_ns, rs.busy_by_node.get(replica, 0.0))
        completion = start + svc * np.arange(1, k + 1, dtype=np.float64)
        rs.busy_by_node[replica] = float(completion[-1])
        hedge_latency = completion - self.arrivals
        wins = hedge_latency < self.latency_arr[self.idx]
        n_wins = int(wins.sum())
        # hedge traffic rides the replica's fabric path, not the primary's
        engine.fabric.charge(st.vni, replica, n_bytes, 0, now)
        if n_wins:
            won_idx = self.idx[wins]
            delta = hedge_latency[wins] - self.latency_arr[won_idx]
            self.latency_arr[won_idx] = hedge_latency[wins]
            st.latency_sum_ns += float(delta.sum())
            engine._count(st, HEDGE_WINS, n_wins)


# -- the engine ----------------------------------------------------------------


class ResilientTrafficEngine(TrafficEngine):
    """The traffic engine with the fault-tolerant request path wired in.

    ``resilience`` is one :class:`ResilienceSpec` applied to every
    tenant, or a ``{tenant_name: spec}`` mapping (missing names get
    :data:`DISABLED`).  With :data:`DISABLED` everywhere the engine is
    bit-identical to :class:`~repro.workloads.traffic.TrafficEngine` on
    a healthy rack, and merely *counts* losses on a faulty one.

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
        resilience: Union[ResilienceSpec, Dict[str, ResilienceSpec], None] = None,
        crash_detection: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(kernel, tenants, **kwargs)
        self._rstate: Dict[str, _ResilienceState] = {}
        self._hedge_ops: set = set()
        for name, st in self.tenants.items():
            if isinstance(resilience, dict):
                spec = resilience.get(name, DISABLED)
            else:
                spec = resilience if resilience is not None else DISABLED
            self._rstate[name] = self._build_state(st, spec)
        self.crash_detection = bool(crash_detection)
        if self.crash_detection:
            self.machine.on_crash(self._on_node_crash)

    def _build_state(self, st: _TenantState, spec: ResilienceSpec) -> _ResilienceState:
        primary = st.spec.node
        targets: Tuple[int, ...] = (primary,)
        replica = spec.replica_node
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
        rs = _ResilienceState(spec=spec, targets=targets)
        if spec.breaker is not None:
            for target in targets:
                rs.breakers[target] = CircuitBreaker(spec.breaker, st.spec.name, target)
        if spec.retry is not None:
            rs.tokens = float(spec.retry.burst)
        return rs

    # -- breaker plumbing ------------------------------------------------------

    def _note_transition(self, st: _TenantState, record: Optional[dict]) -> None:
        """Keep a breaker's transition record (``None``: it did not move)."""
        if record is None:
            return
        self.breaker_events.append(record)
        self.breaker_log.append(render_transition(record))
        if _TEL.enabled and record["to"] == CircuitBreaker.OPEN:
            _TEL.tenant_add(st.spec.node, st.spec.name, "resilience.breaker_opens")

    def _breaker_outcome(
        self, rs: _ResilienceState, target: int, now_ns: float, ok: bool
    ) -> None:
        br = rs.breakers.get(target)
        if br is not None:
            self._note_transition(self.tenants[br.tenant], br.record(now_ns, ok))

    def _trip(self, node: int, now_ns: float, reason: str, names) -> None:
        """Force open the breaker each of ``names`` holds on ``node``."""
        for name in names:
            br = self._rstate[name].breakers.get(node)
            if br is not None:
                self._note_transition(self.tenants[name], br.trip(now_ns, reason))

    def _on_node_crash(self, node_id: int, now_ns: float) -> None:
        """Machine crash hook: fail fast — open the breakers immediately
        instead of waiting for an error-rate window to fill."""
        self._trip(node_id, now_ns, "node-crash", self.tenants)

    def feed_health_alerts(self, health) -> None:
        """Trip breakers from the health engine's active SLO burn alerts
        (the alert stream is the breaker's out-of-band evidence)."""
        if health is None:
            return
        for (objective, node), _alert in sorted(health.slo.active.items()):
            self._trip(node, self.events.now_ns, f"slo:{objective}", sorted(self.tenants))

    def _route(self, rs: _ResilienceState, now_ns: float) -> Optional[int]:
        """First candidate target whose breaker admits traffic."""
        for target in rs.targets:
            br = rs.breakers.get(target)
            if br is None or br.allow(now_ns):
                return target
        return None

    # -- the overridden seam ---------------------------------------------------

    def _run_admitted(self, st, arrivals, key_idx, is_get) -> None:
        """The base sequence with each configured policy's step in place:
        route → attempt loop → queue model → deadline → record → hedge.
        A spec with every policy off takes every step's policy-free
        branch — the base engine's floats, with faults counted as
        losses instead of unwinding the run."""
        rs = self._rstate[st.spec.name]
        spec = rs.spec
        n = len(arrivals)
        now = self.events.now_ns
        if spec.retry is not None:
            rs.tokens = min(float(spec.retry.burst),
                            rs.tokens + spec.retry.budget_ratio * n)
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
        if spec.deadline_ns is not None:
            ok = self._enforce_deadline(st, latency, spec.deadline_ns)
            if ok is not None:
                arrivals, latency = arrivals[ok], latency[ok]
                key_idx, is_get = key_idx[ok], is_get[ok]
                if len(arrivals) == 0:
                    return
        self._record(st, arrivals, latency, n_bytes)
        if spec.hedge is not None:
            self._hedge(st, rs, arrivals, key_idx, is_get, target, now)

    def _attempt_loop(self, st, rs, key_idx, is_get, target, now):
        """Attempt the batch on ``target``, then — while the retry policy,
        its token bucket and the breakers allow — on whatever
        :meth:`_route` offers next (batch granularity: a node or link
        failure takes out the whole batch's target at once).

        Returns ``(serving target, n_bytes, charged_ns, penalty_ns)``;
        ``penalty_ns`` is the detection + backoff time the batch head
        absorbed.  ``None`` means the batch was lost, and counted.
        """
        spec = rs.spec
        retry = spec.retry
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
                penalty += spec.failure_detect_ns
                can_retry = (
                    retry is not None
                    and attempt < retry.backoff.max_attempts
                    and rs.tokens >= n
                )
                next_target = self._route(rs, now) if can_retry else None
                if next_target is None:
                    self._count(st, FAILED, n)
                    return None
                rs.tokens -= n
                penalty += retry.backoff.delay_ns(attempt, st.spec.name, target)
                self._count(st, RETRIES, n)
                attempt += 1
                target = next_target
            else:
                self._breaker_outcome(rs, target, now, ok=True)
                if target != st.spec.node:
                    self._count(st, FAILOVERS, n)
                return target, n_bytes, charged, penalty

    def _enforce_deadline(self, st, latency, deadline_ns) -> Optional[np.ndarray]:
        """Count the requests that blew their budget — charged but lost.
        Returns the mask of those that made it, ``None`` when all did."""
        ok = latency <= deadline_ns
        n_late = int(len(latency) - ok.sum())
        if not n_late:
            return None
        self._count(st, TIMED_OUT, n_late)
        return ok

    def _hedge(self, st, rs, arrivals, key_idx, is_get, target, now) -> None:
        """Duplicate the batch's predicted tail to the replica (when there
        is one that did not just serve it), then fold the batch's p99
        into the EWMA that sets the *next* batch's hedge delay."""
        hedge = rs.spec.hedge
        recorded = st.latencies[-1]
        # one sort serves both questions: its maximum says whether any
        # request is past the hedge delay at all, its tail is the p99
        ranked = recorded.copy()
        ranked.sort()
        replica = rs.spec.replica_node
        if replica is not None and replica in rs.targets and replica != target:
            delay = max(hedge.min_delay_ns, rs.p99_ewma * hedge.multiplier)
            if ranked[-1] > delay:
                self._launch_hedge(st, rs, recorded, arrivals, key_idx, is_get, now, delay)
        batch_p99 = _ranked_p99(ranked)
        if rs.p99_ewma == 0.0:
            rs.p99_ewma = batch_p99
        else:
            rs.p99_ewma += hedge.alpha * (batch_p99 - rs.p99_ewma)

    def _launch_hedge(self, st, rs, recorded, arrivals, key_idx, is_get, now, delay) -> None:
        hedge = rs.spec.hedge
        # only requests still queued are worth duplicating: a batch wake
        # serves a window retroactively, so predicted completions in the
        # past already "responded" and the primary wins by definition
        over = np.flatnonzero((recorded > delay) & (arrivals + recorded > now))
        if len(over) == 0:
            return
        cap = max(1, int(hedge.max_fraction * len(recorded)))
        if len(over) > cap:
            # worst predicted latencies first; stable sort keeps ties
            # in arrival order so the pick is deterministic
            order = np.argsort(recorded[over], kind="stable")[::-1]
            over = over[order[:cap]]
            over.sort()
        k = len(over)
        self._count(st, HEDGES, k)
        arr_sub = arrivals[over]
        parent = None
        if _TEL.tracing:
            cur = _TEL.trace.current()
            parent = cur.span_id if cur is not None else None
        op = _HedgeOp(
            engine=self,
            st=st,
            rs=rs,
            latency_arr=recorded,
            idx=over,
            arrivals=arr_sub,
            key_idx=key_idx[over],
            is_get=is_get[over],
            fire_ns=max(now, float(arr_sub[0]) + delay),
            parent_span=parent,
        )
        primary_done = float(np.max(arr_sub + recorded[over]))
        # primary scheduled first: on a tie the response already in
        # hand wins and the duplicate is never sent
        op.ev_primary = self.events.at(primary_done, op.primary_wins)
        op.ev_hedge = self.events.at(op.fire_ns, op.fire, node=rs.spec.replica_node)
        self._hedge_ops.add(op)

    def finalize(self) -> None:
        """Resolve in-flight hedges (primary stands) and cancel their
        events — call before treating a report as final."""
        for op in list(self._hedge_ops):
            op.primary_wins()


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
        health=None,
        control_period_ns: float = 1e6,
        scrub_bytes: int = 1 << 18,
    ) -> None:
        for ev in campaign.events:
            if ev.at_ns is None:
                raise ValueError(
                    f"chaos-under-load needs at_ns triggers; event "
                    f"{ev.action!r} has {ev.trigger_str()!r}"
                )
        self.kernel = kernel
        self.engine = engine
        self.campaign = campaign
        self.health = health if health is not None else getattr(kernel, "health", None)
        self.control_period_ns = float(control_period_ns)
        self.scrub_bytes = int(scrub_bytes)
        self.events = engine.events
        # reuse the step-runner's action handlers + seeded RNG contract
        self._runner = CampaignRunner(kernel.machine, kernel, health=self.health)
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
        breaker_mark = len(self.engine.breaker_log)

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

        self.kernel.start_patrols(
            scrub_period_ns=self.control_period_ns,
            scrub_bytes=self.scrub_bytes,
            health_period_ns=self.control_period_ns if self.health is not None else None,
            sink=_sink,
        )
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
        self.engine.finalize()
        self.sync_recorder()
        unfired = len(self.campaign.events) - len(fired)
        if unfired:
            lines.append(f"unfired={unfired}")
        breakers = self.engine.breaker_log[breaker_mark:]
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
        """Feed health alerts into the engine's breakers each period."""
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


def _batch_p99(latencies: np.ndarray) -> float:
    """``float(np.percentile(latencies, 99))`` of a non-empty finite batch
    — the same double, which the tests hold it to: it feeds the hedge delay."""
    return _ranked_p99(np.sort(latencies))


def _ranked_p99(s: np.ndarray) -> float:
    """:func:`_batch_p99` of latencies already sorted ascending.

    numpy's own linear-interpolation arithmetic (virtual index
    ``(n - 1) * 0.99``; the upper form of the lerp from the midpoint on),
    without ``np.percentile``'s per-call set-up, which dominated on the few
    dozen latencies a batch holds.
    """
    virtual = (s.shape[0] - 1) * 0.99
    lo = int(virtual)
    below = s[lo]
    above = s[min(lo + 1, s.shape[0] - 1)]
    gamma = virtual - lo
    if gamma >= 0.5:
        return float(above - (above - below) * (1 - gamma))
    return float(below + (above - below) * gamma)

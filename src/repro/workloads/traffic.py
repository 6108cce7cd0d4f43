"""Open-loop, multi-tenant traffic engine over the rack substrate.

The paper's evaluation drives the rack with a handful of cooperative
clients; real racks serve *fleets* — hundreds of thousands of logical
clients whose requests arrive whether or not the system keeps up.  This
module is that load: tenants declare an offered rate and a client
population (:class:`TenantSpec`), arrivals are pre-sampled in bulk
(:mod:`repro.workloads.arrivals`), and a discrete-event core
(:mod:`repro.core.events`) wakes each tenant only when arrivals are due
— so a million simulated requests cost O(batches) Python, not
O(clients x ticks).

Per tenant, every batch flows through:

1. **VNI accounting** — the tenant's traffic is tagged with its
   Slingshot-style VNI on the fabric
   (:class:`~repro.rack.interconnect.VniTable`) so the rack knows which
   tenant is driving each byte;
2. **admission control** — a batch is refused admission when the fabric
   is saturated *and* this tenant runs past its weighted fair share
   (link guard), and individual requests are shed when their queueing
   delay behind the tenant's server would exceed ``max_backlog_ns``
   (backlog bound).  Drops are counted per tenant, never silently;
3. **bulk execution** — admitted requests run as *one* batch through the
   bulk data plane (``load_many`` / ``store_many``), which is what makes
   a wake O(1) substrate calls.

Queueing is an explicit single-server model per tenant: request ``i``
starts at ``max(arrival_i, completion_{i-1})`` and completes one
service time later.  The recurrence is computed vectorized (a running
max over ``arrival_i - svc*i``), with the drop pass applied against the
undropped queue (pessimistic admission) and latencies recomputed over
the survivors — two numpy passes, no per-request Python, and survivor
waits are bounded by construction.  The drop pass runs only where a
scalar bound (head wait + ``svc*n``) cannot prove the batch clear.

Determinism: arrivals, key draws and op mixes are seeded per tenant;
the event heap breaks ties by insertion order; service costs come from
the machine's charged nanoseconds.  Same seed, same report —
:meth:`TrafficReport.digest` is the bit the tests pin.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..flacdk.arena import ArenaExhausted
from ..rack.interconnect import InterconnectError
from ..rack.machine import NodeContext, SlotWindow
from ..rack.node import NodeCrashedError
from ..rack.params import finite, whole
from ..telemetry import ADMITTED_SERIES, LOST_SERIES, TELEMETRY as _TEL
from .arrivals import ArrivalProcess, make_process

#: Arrival timestamps pre-sampled per refill of a tenant's queue.
_ARRIVAL_CHUNK = 4_096

#: 0.0, 1.0, 2.0, ... — request indices for the queue kernel: ``_ramp[:n]``
#: is ``k``, ``_ramp[1:n + 1]`` is ``k + 1.0``, and no batch builds an ``arange``
#: (``_completions`` regrows it for a batch that would not fit)
_ramp = np.arange(2 * _ARRIVAL_CHUNK, dtype=np.float64)


class AdmissionError(Exception):
    """A tenant could not be admitted (memory or policy)."""


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's offered load and placement.

    ``rate_rps`` is the *aggregate* offered rate of the tenant's fleet
    (open-loop: arrivals do not wait for completions).  ``n_clients``
    is descriptive — how many logical clients that rate stands for — and
    does not influence arrivals.  ``weight`` is the tenant's VNI
    fair-share weight on the fabric; ``max_backlog_ns`` bounds how long
    a request may queue behind the tenant's server before admission
    control sheds it.
    """

    name: str
    rate_rps: float
    n_clients: int = 1_000
    node: int = 0
    arrival: str = "poisson"  # "poisson" | "diurnal"
    amplitude: float = 0.5
    period_s: float = 60.0
    phase: float = 0.0
    get_ratio: float = 0.9
    n_keys: int = 1_024
    value_size: int = 64
    weight: float = 1.0
    max_backlog_ns: float = 2e6

    def __post_init__(self) -> None:
        # refused here, by name, instead of surfacing batches later as a NaN
        # event time, a mix no draw can produce, 100% silent shedding, or a
        # diurnal rate of NaN that thins away every arrival (a run that hangs)
        for name, legal, ok in (
            ("rate_rps", "finite and > 0", 0 < self.rate_rps < math.inf),
            ("arrival", "'poisson' or 'diurnal'", self.arrival in ("poisson", "diurnal")),
            ("amplitude", "in [0,1)", 0.0 <= self.amplitude < 1.0),
            ("period_s", "finite and > 0", 0 < self.period_s < math.inf),
            ("phase", "finite", finite(self.phase)),
            ("weight", "finite and > 0", 0 < self.weight < math.inf),
            ("get_ratio", "in [0,1]", 0.0 <= self.get_ratio <= 1.0),
            ("max_backlog_ns", ">= 0 (inf: never shed)", self.max_backlog_ns >= 0.0),
            ("n_keys", "an integer >= 1", _whole(self.n_keys)),
            ("value_size", "an integer >= 1", _whole(self.value_size)),
        ):
            if not ok:  # every comparison is False for NaN
                raise ValueError(f"tenant {self.name!r}: {name} must be {legal}, "
                                 f"got {getattr(self, name)}")


def _whole(value) -> bool:
    return isinstance(value, (int, np.integer)) and value >= 1


# -- the outcome ledger ----------------------------------------------------------

class Outcome(NamedTuple):
    """One row of the per-tenant outcome ledger (DESIGN §11).

    Everything that is known about an outcome is in its row; the only
    writer is :meth:`TrafficEngine._count`, and reports, digests and
    flight-recorder samples read the rows by iteration.
    """

    #: the outcome; also its key in the flight recorder's resilience sample
    name: str
    #: key in ``_TenantState.counts`` and in ``TrafficReport.tenants[...]``
    counter: str
    #: the ``traffic/<tenant>`` registry series one count feeds, if a
    #: reader reads one: the availability pair, nothing else
    series: Optional[str] = None
    #: the fabric refused or lost the request: one VNI drop per count
    drop: bool = False


OFFERED = Outcome("offered", "offered")
ADMITTED = Outcome("admitted", "admitted", ADMITTED_SERIES)
BACKLOG = Outcome("backlog", "dropped_backlog", drop=True)
LINK = Outcome("link", "dropped_link", drop=True)
FAILED = Outcome("failed", "failed", LOST_SERIES, drop=True)
#: no step counts it; the digest, recorder samples, postmortem and benchmark carry it
TIMED_OUT = Outcome("timed_out", "timed_out", LOST_SERIES, drop=True)
RETRIES = Outcome("retries", "retries")
#: no step counts these two either (the request path does not hedge); the same readers carry them
HEDGES = Outcome("hedges", "hedges")
HEDGE_WINS = Outcome("hedge_wins", "hedge_wins")
FAILOVERS = Outcome("failovers", "failovers")
SHED = Outcome("shed", "dropped_shed", LOST_SERIES, drop=True)

#: arrival bookkeeping; admission refusals (their sum is the report's
#: derived ``dropped``); what the request path did with an admitted batch
ARRIVAL = (OFFERED, ADMITTED)
ADMISSION = (BACKLOG, LINK)
REQUEST_PATH = (FAILED, TIMED_OUT, RETRIES, HEDGES, HEDGE_WINS, FAILOVERS, SHED)
LEDGER = ARRIVAL + ADMISSION + REQUEST_PATH

#: what the substrate raises when a batch's target cannot serve it (a crashed
#: node, a severed link): the request path counts the batch :data:`FAILED`
FAILURES = (NodeCrashedError, InterconnectError)


@dataclass
class _TenantState:
    """Everything the engine tracks per tenant between wakes."""

    spec: TenantSpec
    vni: int
    arrivals: ArrivalProcess
    rng: np.random.Generator
    #: pre-sampled arrival timestamps not yet consumed
    queue: np.ndarray
    pos: int = 0
    #: single-server model: when the tenant's server frees up
    busy_until_ns: float = 0.0
    #: per-request service estimate used for the *next* batch's queue math
    svc_est_ns: float = 1_000.0
    #: one count per :data:`LEDGER` row, keyed by ``Outcome.counter``
    counts: Dict[str, int] = field(
        default_factory=lambda: {o.counter: 0 for o in LEDGER}
    )
    latency_sum_ns: float = 0.0
    #: total queueing delay suffered (latency beyond pure service time)
    queue_delay_ns: float = 0.0
    latencies: List[np.ndarray] = field(default_factory=list)
    backend_state: object = None


@dataclass
class TrafficReport:
    """What one :meth:`TrafficEngine.run` produced."""

    duration_ns: float
    events_dispatched: int
    tenants: Dict[str, dict]

    def digest(self) -> str:
        """SHA-256 over every deterministic per-tenant outcome."""
        lines = []
        for name in sorted(self.tenants):
            t = self.tenants[name]
            arrival = " ".join(str(t[o.counter]) for o in ARRIVAL)
            request_path = " ".join(str(t[o.counter]) for o in REQUEST_PATH)
            lines.append(
                f"{name} {arrival} {t['dropped']} "
                f"{t['latency_sum_ns']:.3f} {t['busy_until_ns']:.3f} {request_path}"
            )
        lines.append(f"duration {self.duration_ns:.3f}")
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# -- the data plane ------------------------------------------------------------


class DataPlaneBackend:
    """Requests are bulk loads/stores against a per-tenant memory slab.

    Each tenant gets ``n_keys * value_size`` bytes of global memory
    (its namespace); key ``k`` lives at ``slab + k*value_size``.  The
    slab is mapped once and never moves, so the tenant holds it as one
    resolved :class:`~repro.rack.machine.SlotWindow`: the preload and
    every batch — one ``load_many`` for the GETs, one ``store_many`` for
    the SETs — name slots of it, and nothing is looked up per batch.  A
    SET rewrites its key's own value, so every ``store_many`` hands over
    the same row table (the preloaded values) and nothing is assembled.
    """

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        #: tenant name -> the window over its slab
        self.windows: Dict[str, SlotWindow] = {}

    def prepare(self, st: _TenantState) -> None:
        spec = st.spec
        try:
            slab = self.kernel.arena.take(spec.n_keys * spec.value_size, align=64)
        except ArenaExhausted as exc:
            raise AdmissionError(
                f"tenant {spec.name!r}: no global memory for its namespace "
                f"({spec.n_keys}x{spec.value_size}B)"
            ) from exc
        # deterministic per-key content, preloaded so GETs always hit data
        blocks = np.frombuffer(b"".join(
            hashlib.blake2b(b"%s:%d" % (spec.name.encode(), k), digest_size=8).digest()
            for k in range(spec.n_keys)
        ), dtype=np.uint8).reshape(spec.n_keys, 8)
        reps = (spec.value_size + 7) // 8
        values = np.ascontiguousarray(np.tile(blocks, (1, reps))[:, : spec.value_size])
        machine = self.kernel.machine
        window = SlotWindow(machine.address_map, slab, spec.n_keys, spec.value_size)
        self.windows[spec.name] = window
        machine.context(spec.node).store_many(
            window.at(np.arange(spec.n_keys)),
            values.reshape(-1),
            size=spec.value_size,
            bypass_cache=True,
        )
        st.backend_state = (slab, values)

    def run_batch(
        self, ctx: NodeContext, st: _TenantState, key_idx: np.ndarray, is_get: np.ndarray
    ) -> int:
        window = self.windows[st.spec.name]
        size = window.size
        gets = key_idx[is_get]
        if len(gets):
            ctx.load_many(window.at(gets), size, bypass_cache=True, concat=True)
        if len(gets) < len(key_idx):
            table = st.backend_state[1].reshape(-1)
            ctx.store_many(window.at(key_idx[~is_get]), table, size=size, bypass_cache=True)
        return len(key_idx) * size


# -- the engine ----------------------------------------------------------------


class TrafficEngine:
    """Open-loop load over a booted :class:`~repro.core.kernel.FlacOS`.

    ``batch_window_ns`` is the wake cadence: a tenant's wake at time
    ``T`` serves every arrival with timestamp <= ``T``, so larger
    windows trade per-request wake precision for bigger (cheaper)
    batches.  Latency accounting always uses exact per-request arrival
    times, so the window changes *host* cost, not simulated truth.
    """

    def __init__(
        self,
        kernel,
        tenants: List[TenantSpec],
        seed: int = 0,
        batch_window_ns: float = 200_000.0,
    ) -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        # refused here, by name: a negative window re-arms every wake at its
        # own instant, NaN breaks the event heap, inf refills arrivals forever
        if not (finite(batch_window_ns) and batch_window_ns >= 0):
            raise ValueError(f"{type(self).__name__}.batch_window_ns must be a finite "
                             f"number >= 0, got {batch_window_ns!r}")
        self.kernel = kernel
        self.machine = kernel.machine
        self.events = kernel.events
        self.batch_window_ns = float(batch_window_ns)
        self.backend = DataPlaneBackend(kernel)
        self.fabric = self.machine.fabric
        self.vnis = self.machine.fabric.vnis
        self.tenants: Dict[str, _TenantState] = {}
        #: tenant name -> its one wake callable (:meth:`_waker`)
        self._wakes: Dict[str, Callable[[], None]] = {}
        #: Σ tenant ``offered``, kept running (``run`` stops on it per event)
        self.total_offered = 0
        #: breaker transition records in occurrence order
        #: (:func:`~repro.workloads.resilience.render_transition` makes one a
        #: journal line); the base engine has no breakers, so it stays empty
        self.breaker_events: List[dict] = []
        start_ns = self.events.now_ns
        for idx, spec in enumerate(tenants):
            if spec.node not in self.machine.nodes:
                raise AdmissionError(f"tenant {spec.name!r}: no node {spec.node}")
            vni = self.vnis.register(spec.name, weight=spec.weight)
            arrivals = make_process(
                spec.arrival,
                spec.rate_rps,
                seed=seed * 65_537 + idx,
                start_ns=start_ns,
                amplitude=spec.amplitude,
                period_s=spec.period_s,
                phase=spec.phase,
            )
            st = _TenantState(
                spec=spec,
                vni=vni,
                arrivals=arrivals,
                rng=np.random.default_rng(seed * 92_821 + idx),
                queue=np.empty(0, dtype=np.float64),
            )
            self.backend.prepare(st)
            self.tenants[spec.name] = st
            self._wakes[spec.name] = self._waker(st)
            self._arm(st)

    # -- event plumbing --------------------------------------------------------

    def _refill(self, st: _TenantState) -> None:
        """Top up the tenant's pre-sampled arrival buffer."""
        fresh = st.arrivals.next_chunk(_ARRIVAL_CHUNK)
        while len(fresh) == 0:  # thinning may reject a whole chunk
            fresh = st.arrivals.next_chunk(_ARRIVAL_CHUNK)
        left = st.queue[st.pos:]
        st.queue = np.concatenate((left, fresh)) if len(left) else fresh
        st.pos = 0

    def _arm(self, st: _TenantState) -> None:
        """Schedule the tenant's next wake: first pending arrival plus
        one batch window (so the wake serves a whole window's worth)."""
        if st.pos >= len(st.queue):
            self._refill(st)
        when = float(st.queue[st.pos]) + self.batch_window_ns
        self.events.at(when, self._wakes[st.spec.name], node=st.spec.node)

    def _waker(self, st: _TenantState) -> Callable[[], None]:
        """The tenant's one wake: a closure, which Python calls (C calls a
        ``partial``), looking ``_wake`` up at call time (a patched one applies)."""
        def wake() -> None:
            self._wake(st)
        return wake

    def _wake(self, st: _TenantState) -> None:
        now = self.events.now_ns
        # take every pre-sampled arrival due by now (extending the
        # buffer until it provably covers the window)
        while st.queue[len(st.queue) - 1] <= now:
            self._refill(st)
        end = int(st.queue.searchsorted(now, side="right"))
        batch = st.queue[st.pos:end]
        st.pos = end
        if len(batch):
            self._serve(st, batch)
        self._arm(st)

    # -- the per-batch pipeline ------------------------------------------------

    def _count(self, st: _TenantState, outcome: Outcome, n: int) -> None:
        """The ledger's one writer: ``n`` requests of ``st`` met ``outcome``."""
        counts = st.counts
        counts[outcome.counter] += n
        if outcome.drop:
            self.vnis.drop(st.vni, n)
        if outcome.series is not None and _TEL.enabled:
            _TEL.tenant_add(st.spec.node, st.spec.name, outcome.series, n)

    def _serve(self, st: _TenantState, arrivals: np.ndarray) -> None:
        spec = st.spec
        n = len(arrivals)
        self._count(st, OFFERED, n)
        self.total_offered += n

        # link guard: fabric saturated AND this tenant past its fair
        # share -> shed the whole batch before it touches the substrate
        # (now-aware so a long-idle fabric never sheds on a stale rate)
        now = self.events.now_ns
        if self.vnis.saturated(now) and self.vnis.over_share(st.vni, now):
            self._count(st, LINK, n)
            return

        svc = max(1.0, st.svc_est_ns)
        keep = self._backlog_keep(arrivals, svc, st.busy_until_ns, spec.max_backlog_ns)
        if keep is not None:
            self._count(st, BACKLOG, n - int(keep.sum()))
            arrivals = arrivals[keep]
            n = len(arrivals)
            if n == 0:
                return

        # the admitted batch's key/op draws happen exactly once, here,
        # so resilient and base engines replay the same RNG stream
        key_idx = st.rng.integers(spec.n_keys, size=n)  # the stream of integers(0, n_keys)
        is_get = st.rng.random(n) < spec.get_ratio
        if not _TEL.tracing:
            self._run_admitted(st, arrivals, key_idx, is_get)
        else:
            # root of the batch's causal tree: attempts, retries and
            # data-plane spans all chain under it, so a failed
            # request walks back to the node that dropped it.  Tracing
            # reads clocks, never advances them — simulated outcomes
            # are bit-identical either way.
            sp = _TEL.trace.begin(
                "traffic.batch", spec.node, now, tenant=spec.name, n=n
            )
            try:
                self._run_admitted(st, arrivals, key_idx, is_get)
            finally:
                _TEL.trace.end(sp, max(now, st.busy_until_ns))

    @classmethod
    def _backlog_keep(
        cls, arrivals: np.ndarray, svc: float, busy_until_ns: float, max_backlog_ns: float
    ) -> Optional[np.ndarray]:
        """The backlog bound (pessimistic admission): the mask of requests
        whose wait behind the *undropped* queue is within ``max_backlog_ns``,
        or ``None`` when that is all of them.

        Arrivals are sorted, so no wait exceeds the head's plus
        ``svc * (n - 1)``: a batch whose bound on that clears the limit with
        ``svc + 1`` ns to spare (far above float rounding) provably sheds
        nothing, and the per-request pass runs only where it can find work.
        """
        n = len(arrivals)
        head_wait = max(busy_until_ns - float(arrivals[0]), 0.0)
        if head_wait + svc * n < max_backlog_ns - 1.0:
            return None
        completion = cls._completions(arrivals, svc, busy_until_ns)
        wait = completion - svc - arrivals
        keep = wait <= max_backlog_ns
        return None if keep.all() else keep

    @staticmethod
    def _completions(
        arrivals: np.ndarray, svc: float, busy_until_ns: float
    ) -> np.ndarray:
        """Single-server completion times: request ``i`` starts at
        ``max(arrival_i, completion_{i-1})``, runs ``svc`` ns — the float
        operations of ``maximum.accumulate(arrivals - svc*k) + svc*(k + 1)``
        in that order, in one fresh buffer."""
        global _ramp
        n = len(arrivals)
        if n >= len(_ramp):
            _ramp = np.arange(2 * n, dtype=np.float64)
        out = svc * _ramp[:n]
        np.subtract(arrivals, out, out=out)
        out[0] = max(out[0], busy_until_ns)
        np.maximum.accumulate(out, out=out)
        out += svc * _ramp[1 : n + 1]
        return out

    def _run_admitted(
        self,
        st: _TenantState,
        arrivals: np.ndarray,
        key_idx: np.ndarray,
        is_get: np.ndarray,
    ) -> None:
        """Execute one admitted batch and record its outcomes: attempt on
        the tenant's node → queue model → record.  A batch the substrate
        refuses (:data:`FAILURES`) is counted lost; the run goes on, as
        open-loop arrivals do.

        The fault-tolerant engine puts its policies' steps in between —
        everything upstream (arrival bookkeeping, link guard, backlog
        bound, RNG draws) is shared.
        """
        try:
            n_bytes, charged = self._attempt(st, key_idx, is_get, st.spec.node, attempt=0)
        except FAILURES:
            self._count(st, FAILED, len(arrivals))
            return
        latency = self._queue_model(st, arrivals, charged, st.busy_until_ns)
        self._record(st, arrivals, latency, n_bytes)

    def _attempt(
        self,
        st: _TenantState,
        key_idx: np.ndarray,
        is_get: np.ndarray,
        target: int,
        attempt: int,
    ) -> Tuple[int, float]:
        """Run the batch on ``target`` once: ``(n_bytes, charged_ns)``, or
        whatever the substrate raised (a crashed node, a severed link).

        With tracing on the attempt is one ``traffic.attempt`` span under
        its batch's, carrying the target node, the attempt number and the
        outcome, so a trace walks a failed request back to the node (or
        link) that refused it.
        """
        ctx = self.machine.context(target)
        before = ctx.now()
        if not _TEL.tracing:
            n_bytes = self.backend.run_batch(ctx, st, key_idx, is_get)
            return n_bytes, ctx.now() - before
        trace = _TEL.trace
        sp = trace.begin(
            "traffic.attempt", target, before, tenant=st.spec.name, target=target,
            outcome="failed", attempt=attempt,
        )
        try:
            n_bytes = self.backend.run_batch(ctx, st, key_idx, is_get)
            trace.annotate(sp, outcome="ok")
        finally:
            trace.end(sp, ctx.now())
        return n_bytes, ctx.now() - before

    def _queue_model(
        self, st: _TenantState, arrivals: np.ndarray, charged_ns: float, busy_ns: float
    ) -> np.ndarray:
        """Latencies of the batch behind a server that frees at
        ``busy_ns``, at the *measured* per-request cost (which becomes
        the next batch's admission estimate)."""
        svc = max(1.0, charged_ns / len(arrivals))
        st.svc_est_ns = svc
        completion = self._completions(arrivals, svc, busy_ns)
        st.busy_until_ns = float(completion[-1])
        return completion - arrivals

    def _record(
        self,
        st: _TenantState,
        arrivals: np.ndarray,
        latency: np.ndarray,
        n_bytes: int,
    ) -> None:
        spec = st.spec
        n = len(arrivals)
        st.latency_sum_ns += float(np.add.accumulate(latency)[-1])
        st.latencies.append(latency)
        # charged along the actual routed path: aggregate VNI accounting
        # plus every link between the tenant's node and global memory
        self.fabric.charge(st.vni, spec.node, n_bytes, n, self.events.now_ns)
        # queueing delay = latency beyond the batch's measured service
        # time, which the atlas banks per tenant
        over = latency - st.svc_est_ns
        np.maximum(over, 0.0, out=over)
        wait = float(np.add.reduce(over))
        st.queue_delay_ns += wait
        self._count(st, ADMITTED, n)
        if _TEL.enabled:
            _TEL.tenant_observe_batch(spec.node, spec.name, "latency_ns", latency)
        atlas = _TEL.atlas
        if atlas is not None:
            atlas.note_queue_delay(spec.name, wait)

    # -- driving ----------------------------------------------------------------

    def run(
        self,
        duration_ns: Optional[float] = None,
        max_requests: Optional[int] = None,
    ) -> TrafficReport:
        """Pump the event core until a bound is hit; returns the report.

        ``duration_ns`` bounds simulated time (from the core's current
        position); ``max_requests`` bounds total *offered* requests
        across tenants.  At least one bound is required (an open loop
        never drains on its own).
        """
        if duration_ns is None and max_requests is None:
            raise ValueError("open-loop run needs duration_ns and/or max_requests")
        # refused here, by name: NaN never ends an open loop, inf stamps the
        # event clock with it, and a negative bound is an empty report
        for name, value, legal, ok in (
            ("duration_ns", duration_ns, "a finite number >= 0",
             duration_ns is None or (finite(duration_ns) and duration_ns >= 0)),
            ("max_requests", max_requests, "an integer >= 0",
             max_requests is None or whole(max_requests)),
        ):
            if not ok:
                raise ValueError(f"run: {name} must be {legal}, got {value!r}")
        start = self.events.now_ns
        started = self.events.dispatched
        deadline = start + duration_ns if duration_ns is not None else None
        stop_at = self.total_offered + max_requests if max_requests is not None else None
        while True:
            if deadline is not None:
                next_ns = self.events.peek_ns()
                if next_ns is None or next_ns > deadline:
                    break
            if stop_at is not None and self.total_offered >= stop_at:
                break
            if not self.events.step():
                break
        if deadline is not None and deadline > self.events.now_ns:
            self.events.now_ns = deadline
        return self.report(duration_ns=self.events.now_ns - start,
                           events=self.events.dispatched - started)

    def report(self, duration_ns: float = 0.0, events: int = 0) -> TrafficReport:
        tenants = {}
        for name, st in self.tenants.items():
            lat = (
                np.concatenate(st.latencies)
                if st.latencies
                else np.empty(0, dtype=np.float64)
            )
            # one partition serves both quantiles
            p50, p99 = map(float, np.percentile(lat, (50, 99))) if len(lat) else (0.0, 0.0)
            counts = st.counts
            tenants[name] = {
                **{o.counter: counts[o.counter] for o in ARRIVAL},
                "dropped": sum(counts[o.counter] for o in ADMISSION),
                **{o.counter: counts[o.counter] for o in ADMISSION + REQUEST_PATH},
                "latency_sum_ns": st.latency_sum_ns,
                "queue_delay_ns": st.queue_delay_ns,
                "busy_until_ns": st.busy_until_ns,
                "p50_ns": p50,
                "p99_ns": p99,
                "vni": st.vni,
            }
        return TrafficReport(
            duration_ns=duration_ns, events_dispatched=events, tenants=tenants
        )

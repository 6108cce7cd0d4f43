"""The five benchmark workloads.

Each workload is a ``setup(seed, scale)`` / ``run(state)`` pair driven by
``run.py``: ``setup`` builds a fresh rig and prepares the workload (timed
as ``setup_s``), ``run`` drives it once (timed as the run phase) and
returns an :class:`Outcome` holding the simulated results, a digest of
everything deterministic, and the problems its output checks found.
``seed`` offsets every engine, campaign and generator seed, so seed 0 is
the stock configuration; ``scale`` divides the request counts (``--smoke``
uses 10).

Open loops here are open in *simulated* time: a request's latency is taken
from its simulated due time, the offered rate is fixed, and the generator
cannot run late because it is not on the host clock.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro.apps.redis import connect_over_flacos, connect_over_tcp
from repro.bench.harness import build_rig
from repro.chaos.schedule import ChaosCampaign, event
from repro.net import TcpNetwork
from repro.telemetry import TELEMETRY
from repro.telemetry.atlas import enable_atlas
from repro.telemetry.incidents import runner as incident_runner
from repro.telemetry.incidents import scenarios as incident_scenarios  # the catalogue function
from repro.workloads import ValueGenerator
from repro.workloads.resilience import (
    ChaosUnderLoad,
    ResilientTrafficEngine,
    default_spec,
)
from repro.workloads.traffic import TenantSpec, TrafficEngine, TrafficReport

#: Paper Fig. 4: FlacOS IPC cuts Redis request latency 1.75-2.4x against TCP.
PAPER_REDUCTION_BAND = (1.75, 2.4)


@dataclass
class Outcome:
    """What one rep produced."""

    offered: int
    #: simulated end-to-end metrics (name -> value)
    sim: Dict[str, float]
    #: sha256 over every deterministic result of the rep
    digest: str
    #: counters for the layer table and the notes printed beside the metrics
    detail: Dict[str, object] = field(default_factory=dict)
    #: output-check failures; empty means the rep's outputs are correct
    problems: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, int], object]
    run: Callable[[object], Outcome]
    #: heavier check run once, after the last rep, on that rep's state
    verify: Callable[[object], List[str]] = lambda state: []


# -- shared folding of traffic reports -------------------------------------------


def _fold_reports(reports: Dict[str, TrafficReport]) -> Outcome:
    """Simulated metrics over one or more traffic reports.

    Mean latency is Σlatency_sum / Σadmitted over every tenant; p50/p99 are
    the worst tenant's (highest p99), named in ``detail``.  ``timed_out`` is
    a subset of ``failed`` in the engine's accounting, so it is not added
    again.
    """
    offered = admitted = dropped = failed = 0
    latency_sum = 0.0
    worst = None
    problems: List[str] = []
    counters = {k: 0 for k in ("retries", "hedges", "failovers", "timed_out")}
    for label, report in reports.items():
        for name, t in report.tenants.items():
            lost = t["failed"] + t["dropped_shed"]
            if t["offered"] != t["admitted"] + t["dropped"] + lost:
                problems.append(
                    f"{label}/{name}: offered {t['offered']} != admitted "
                    f"{t['admitted']} + dropped {t['dropped']} + failed {lost}"
                )
            offered += t["offered"]
            admitted += t["admitted"]
            dropped += t["dropped"]
            failed += lost
            latency_sum += t["latency_sum_ns"]
            for k in counters:
                counters[k] += t[k]
            if worst is None or t["p99_ns"] > worst[1]["p99_ns"]:
                worst = (f"{label}/{name}" if len(reports) > 1 else name, t)
    fail_share = (dropped + failed) / offered
    return Outcome(
        offered=offered,
        sim={
            "sim_mean_ns": latency_sum / admitted,
            "sim_p50_ns": worst[1]["p50_ns"],
            "sim_p99_ns": worst[1]["p99_ns"],
            "fail_share": fail_share,
            "ok_share": 1.0 - fail_share,
            "availability": admitted / max(1, admitted + failed),
        },
        digest="",
        detail={
            "worst_tenant": worst[0],
            "p99_samples": worst[1]["admitted"],
            "admitted": admitted,
            "dropped": dropped,
            "failed": failed,
            "events_dispatched": sum(r.events_dispatched for r in reports.values()),
            **counters,
        },
        problems=problems,
    )


def _verify_slabs(engine: TrafficEngine) -> List[str]:
    """Read every tenant's slab back around the cache and compare it with
    the values the backend wrote (SETs rewrite a key's own value)."""
    problems = []
    for name, st in engine.tenants.items():
        slab, values = st.backend_state
        size = st.spec.value_size
        ctx = engine.machine.context(st.spec.node)
        got = ctx.load_many(
            [slab + k * size for k in range(st.spec.n_keys)], size,
            bypass_cache=True, concat=True,
        )
        if got != values.tobytes():
            problems.append(f"{name}: slab read-back differs from the stored values")
    return problems


# -- traffic-read / traffic-write --------------------------------------------------


def _read_fleet() -> List[TenantSpec]:
    """The ``bench_traffic`` fleet: 100k clients over four tenants."""
    return [
        TenantSpec(name="web", rate_rps=600_000.0, n_clients=25_000, node=0,
                   get_ratio=0.9),
        TenantSpec(name="api", rate_rps=400_000.0, n_clients=25_000, node=1,
                   get_ratio=0.7),
        TenantSpec(name="feed", rate_rps=300_000.0, n_clients=25_000, node=0,
                   arrival="diurnal", amplitude=0.6, period_s=0.2),
        TenantSpec(name="batch", rate_rps=200_000.0, n_clients=25_000, node=1,
                   get_ratio=0.5),
    ]


def _write_fleet() -> List[TenantSpec]:
    return [
        TenantSpec(name="ingest", rate_rps=150_000.0, node=0, get_ratio=0.1,
                   n_keys=4_096, value_size=1_024),
        TenantSpec(name="log", rate_rps=100_000.0, node=1, get_ratio=0.0,
                   n_keys=4_096, value_size=1_024),
    ]


def _traffic_workload(name: str, why: str, fleet, n_requests: int) -> Workload:
    def setup(seed: int, scale: int):
        rig = build_rig()
        engine = TrafficEngine(rig.kernel, fleet(), seed=seed, batch_window_ns=1e6)
        return engine, n_requests // scale

    def run(state) -> Outcome:
        engine, requests = state
        report = engine.run(max_requests=requests)
        out = _fold_reports({name: report})
        out.digest = report.digest()
        return out

    return Workload(name, why, setup, run, verify=lambda state: _verify_slabs(state[0]))


# -- redis-closed ------------------------------------------------------------------

_REDIS_KEYS = 3_000


def _redis_setup(seed: int, scale: int):
    """One client on node 0, one server on node 1, per transport.

    Value lengths are lognormal around 512 B (sigma 1, so the paper's two
    Fig. 4 sizes, 64 B and 4 KiB, sit two sigmas either side), a pure
    function of the key; the key names carry the seed.
    """
    n = _REDIS_KEYS // scale
    keys = [b"bench:%d:%06d" % (seed, i) for i in range(n)]
    sized = ValueGenerator(size=512, sigma=1.0)
    values = [sized.value_for(key) for key in keys]
    flacos_rig = build_rig()
    flacos, _ = connect_over_flacos(flacos_rig.kernel.ipc, flacos_rig.c0, flacos_rig.c1)
    tcp_rig = build_rig()
    tcp, _ = connect_over_tcp(TcpNetwork(), tcp_rig.c0, tcp_rig.c1)
    return {"flacos": flacos, "tcp": tcp}, keys, values


def _redis_run(state) -> Outcome:
    clients, keys, values = state
    latencies, replies, walls = {}, {}, {}
    wrong = 0
    for transport, client in clients.items():
        lat, got = [], hashlib.sha256()
        t0 = time.perf_counter()
        for key, value in zip(keys, values):
            reply, ns = client.timed_request(b"SET", key, value)
            lat.append(ns)
            got.update(repr(reply).encode())
            wrong += reply != "OK"
            reply, ns = client.timed_request(b"GET", key)
            lat.append(ns)
            got.update(reply or b"<nil>")
            wrong += reply != value
        walls[transport] = time.perf_counter() - t0
        latencies[transport] = np.asarray(lat)
        replies[transport] = got.hexdigest()
    problems = []
    if wrong:
        problems.append(f"{wrong} replies differ from what was SET")
    if replies["flacos"] != replies["tcp"]:
        problems.append("FlacOS and TCP reply streams differ")
    flacos, tcp = latencies["flacos"], latencies["tcp"]
    offered = len(flacos) + len(tcp)
    reduction = float(tcp.sum() / flacos.sum())
    low, high = PAPER_REDUCTION_BAND
    digest = hashlib.sha256(
        flacos.tobytes() + tcp.tobytes() + replies["flacos"].encode()
    ).hexdigest()
    return Outcome(
        offered=offered,
        sim={
            "sim_mean_ns": float(flacos.mean()),
            "sim_p50_ns": float(np.percentile(flacos, 50)),
            "sim_p99_ns": float(np.percentile(flacos, 99)),
            "fail_share": wrong / offered,
            "ok_share": 1.0 - wrong / offered,
            "availability": 1.0 - wrong / offered,
            "sim_reduction_x": reduction,
        },
        digest=digest,
        detail={
            "p99_samples": len(flacos),
            "requests_per_transport": len(flacos),
            "flacos_wall_s": walls["flacos"],
            "tcp_wall_s": walls["tcp"],
            # signed error against the nearest edge of the paper's band
            "reduction_error_vs_paper": (
                (reduction - high) / high if reduction > high
                else (reduction - low) / low if reduction < low else 0.0
            ),
        },
        problems=problems,
    )


# -- chaos-quiet -------------------------------------------------------------------


def _storm_fleet() -> List[TenantSpec]:
    return [
        TenantSpec(name="web", rate_rps=200_000.0, node=0, n_keys=256,
                   get_ratio=0.9, max_backlog_ns=5e6),
        TenantSpec(name="api", rate_rps=150_000.0, node=0, n_keys=256,
                   get_ratio=0.7, max_backlog_ns=5e6),
        TenantSpec(name="batch", rate_rps=100_000.0, node=0, n_keys=256,
                   get_ratio=0.5, max_backlog_ns=5e6),
    ]


def _storm_campaign(seed: int) -> ChaosCampaign:
    """The ``bench_resilience`` crash storm: flap the primary's port, a CE
    storm, then crash it; node 1 keeps a live path throughout."""
    return ChaosCampaign(
        name="crash-storm",
        seed=seed,
        events=(
            event("link_down", at_ns=1e6, node=0),
            event("link_up", at_ns=3e6, node=0),
            event("ce_storm", at_ns=3.5e6, node=0, count=32),
            event("node_crash", at_ns=4e6, node=0),
            event("node_restart", at_ns=60e6),
        ),
    )


def _chaos_setup(seed: int, scale: int):
    seed += 7  # the seed bench_resilience pins
    rig = build_rig(n_nodes=2)
    engine = ResilientTrafficEngine(
        rig.kernel, _storm_fleet(), resilience=default_spec(replica_node=1), seed=seed
    )
    return ChaosUnderLoad(rig.kernel, engine, _storm_campaign(seed)), 200_000 // scale


def _chaos_run(state) -> Outcome:
    storm, requests = state
    report = storm.run(max_requests=requests)
    out = _fold_reports({"chaos-quiet": report.traffic})
    out.digest = report.digest
    out.detail["chaos_events_fired"] = len(report.fired)
    out.detail["breaker_transitions"] = len(report.breaker_transitions)
    return out


# -- incidents-observed --------------------------------------------------------------


def _incidents_setup(seed: int, scale: int):
    """The stock scenarios with the seed added to each campaign seed.

    ``run_scenario`` builds its rig inside the timed call, so a rig of the
    scenarios' node count is built (and dropped) here to give ``setup_s``.
    ``--smoke`` runs the first scenario only.
    """
    table = list(incident_scenarios().values())
    if scale > 1:
        table = table[:1]
    shifted = [
        dataclasses.replace(
            s, campaign=dataclasses.replace(s.campaign, seed=s.campaign.seed + seed)
        )
        for s in table
    ]
    build_rig(n_nodes=max(s.n_nodes for s in shifted))
    return shifted


def _detected(result, window_ns: float) -> bool:
    """Did the detection stack fire on this incident?

    A finite MTTD says so.  The scorer also returns no MTTD when the only
    correct alert is stamped with the start of the health window in which
    the first fault landed (``fired_ns`` is the window's start, so it can
    sit just before ``t0``) and stays firing through the later faults -
    about one campaign seed in twenty on ``ue-storm``.  That alert did
    detect the incident, so it counts here.
    """
    score = result.score
    mttd, t0 = score["mttd_ns"], score["t0_ns"]
    if mttd is not None and np.isfinite(mttd):
        return True
    if t0 is None:
        return False
    truth = score["localization"]["truth"]
    return any(
        alert.get("event") == "firing"
        and alert["fired_ns"] > t0 - window_ns
        and (alert["node"] < 0 or f"node:{alert['node']}" in truth)
        for alert in result.dump.get("alerts", [])
    )


def _incidents_run(state) -> Outcome:
    previous = TELEMETRY.atlas
    enable_atlas()
    try:
        # through the module attribute, so the tracer's wrapper is the one called
        results = [incident_runner.run_scenario(s, detection=True) for s in state]
    finally:
        TELEMETRY.atlas = previous
    out = _fold_reports({r.scenario: r.report.traffic for r in results})
    digest = hashlib.sha256()
    f1 = []
    for scenario, r in zip(state, results):
        loc = r.score["localization"]
        if not _detected(r, scenario.window_ns):
            out.problems.append(f"{r.scenario}: incident never detected (no MTTD)")
        if not loc["recall"] or loc["recall"] <= 0.0:
            out.problems.append(f"{r.scenario}: localization recall is zero")
        f1.append(loc["f1"] or 0.0)
        digest.update(r.report.digest.encode())
        digest.update(json.dumps(r.score, sort_keys=True).encode())
    out.digest = digest.hexdigest()
    out.sim["incident_f1_min"] = min(f1)
    out.detail["chaos_events_fired"] = sum(len(r.report.fired) for r in results)
    out.detail["breaker_transitions"] = sum(
        len(r.report.breaker_transitions) for r in results
    )
    out.detail["alerts"] = sum(len(r.dump["alerts"]) for r in results)
    out.detail["windows"] = sum(len(r.dump["windows"]) for r in results)
    out.detail["dump_bytes"] = sum(len(json.dumps(r.dump)) for r in results)
    return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        _traffic_workload(
            "traffic-read",
            "the headline request path: 1M open-loop requests, 64 B values, mostly GETs - "
            "bulk data plane and memory do the work; single-op, IPC, telemetry, resilience none",
            _read_fleet, 1_000_000,
        ),
        _traffic_workload(
            "traffic-write",
            "the same bulk layer used the other way: 400k requests, 1 KiB values, mostly SETs - "
            "packed store_many and payload assembly, so a read-side gain that costs writes shows",
            _write_fleet, 400_000,
        ),
        Workload(
            "redis-closed",
            "the paper's Fig. 4 path: closed-loop Redis over FlacOS IPC and over TCP - single-op "
            "data plane, cache, ring buffers, IPC, RESP, net; the bulk path does nothing",
            _redis_setup, _redis_run,
        ),
        Workload(
            "chaos-quiet",
            "the bench_resilience crash storm with telemetry off: isolates resilience, chaos "
            "and event-core cost (small batches, many events per request) from telemetry cost",
            _chaos_setup, _chaos_run,
        ),
        Workload(
            "incidents-observed",
            "five incident scenarios with every telemetry sink on (registry, spans, health, "
            "recorder, atlas, scoring): the only workload where telemetry does real work",
            _incidents_setup, _incidents_run,
        ),
    )
}

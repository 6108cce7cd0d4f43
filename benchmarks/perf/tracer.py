"""Outside-in host-time tracer for the perf benchmark.

Nothing under ``src/`` knows about this file.  :class:`Tracer` swaps
timing wrappers in for a fixed table of callables (:data:`TABLE`),
runs one rep, and puts the originals back.  Every wrapper keeps a call
count and *self* time (its duration minus the time spent in wrapped
callees), so the per-layer ``busy_s`` figures add up to at most the
traced wall and no nanosecond is counted twice.  Boundary callables
(``span`` rows) additionally record a span — name, layer, start, end,
parent — in memory; the high-frequency ones (single memory ops,
registry records, ring pushes) keep only the count and self time, so
the tracing overhead stays bounded.

All times here are *host* nanoseconds from ``time.perf_counter_ns``.
The wrappers never read or advance a simulated clock, which is what the
traced-vs-untraced digest check in ``run.py`` verifies.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Dict, List, Optional, Tuple

SPAN, COUNT = "span", "count"


def _n_addrs(tracer, args, result) -> int:  # RackMachine.*_many(self, node_id, addrs, ...)
    return len(args[2])


def _n_bytes(tracer, args, result) -> int:  # Interconnect.charge(self, vni, node_id, n_bytes, ...)
    return args[3]


def _n_result(tracer, args, result) -> int:  # ArrivalProcess.next_chunk -> timestamps
    return len(result)


def _n_keys(tracer, args, result) -> int:  # DataPlaneBackend.run_batch(self, ctx, st, key_idx, is_get)
    return len(args[3])


def _keep_cache_stats(tracer, args, result) -> int:  # RackMachine.__init__(self, config)
    """``NodeCache.stats`` objects live as long as their machine, so keeping
    them (not the machine) lets the layer table read hit/miss counts of rigs
    the program builds and drops on its own."""
    tracer.cache_stats.extend(node.cache.stats for node in args[0].nodes.values())
    return 1


#: The wrapped callables: (layer, module, qualified name, kind[, work]).
#: ``work(tracer, args, result)`` sizes one call (addresses in a bulk call, bytes
#: charged to the fabric, arrivals sampled, requests in a batch).  Private
#: names appear only where a layer has no public seam on the path (the
#: engines' batch handlers run as event callbacks), so that their time is
#: not charged to the event core that dispatches them.
TABLE: Tuple[tuple, ...] = (
    # rig construction
    ("rack.memory", "repro.rack.memory", "PhysicalMemory.__init__", SPAN),
    ("rack.machine.init", "repro.rack.machine", "RackMachine.__init__", SPAN, _keep_cache_stats),
    ("core.kernel", "repro.core.kernel", "FlacOS.__init__", SPAN),
    # bulk data plane
    ("rack.machine.bulk", "repro.rack.machine", "RackMachine.load_many", SPAN, _n_addrs),
    ("rack.machine.bulk", "repro.rack.machine", "RackMachine.store_many", SPAN, _n_addrs),
    ("rack.machine.bulk", "repro.rack.machine", "RackMachine.copy", SPAN),
    ("rack.machine.bulk", "repro.rack.machine", "RackMachine.fill", SPAN),
    ("rack.machine.bulk", "repro.rack.machine", "RackMachine.atomic_fetch_add_many", SPAN, _n_addrs),
    ("rack.machine.bulk", "repro.rack.machine", "RackMachine.atomic_load_many", SPAN, _n_addrs),
    ("rack.machine.bulk", "repro.rack.machine", "RackMachine.atomic_cas_many", SPAN, _n_addrs),
    # single-op data plane
    ("rack.machine.single", "repro.rack.machine", "RackMachine.load", COUNT),
    ("rack.machine.single", "repro.rack.machine", "RackMachine.store", COUNT),
    ("rack.machine.single", "repro.rack.machine", "RackMachine.atomic_cas", COUNT),
    ("rack.machine.single", "repro.rack.machine", "RackMachine.atomic_fetch_add", COUNT),
    ("rack.machine.single", "repro.rack.machine", "RackMachine.atomic_swap", COUNT),
    ("rack.machine.single", "repro.rack.machine", "RackMachine.atomic_load", COUNT),
    ("rack.machine.single", "repro.rack.machine", "RackMachine.atomic_store", COUNT),
    ("rack.machine.single", "repro.rack.machine", "RackMachine.flush", COUNT),
    ("rack.machine.single", "repro.rack.machine", "RackMachine.invalidate", COUNT),
    ("rack.machine.single", "repro.rack.machine", "RackMachine.flush_invalidate", COUNT),
    ("rack.machine.single", "repro.rack.machine", "RackMachine.fence", COUNT),
    # fabric accounting
    ("rack.interconnect", "repro.rack.interconnect", "Interconnect.charge", SPAN, _n_bytes),
    ("rack.interconnect", "repro.rack.interconnect", "VniTable.saturated", COUNT),
    ("rack.interconnect", "repro.rack.interconnect", "VniTable.over_share", COUNT),
    ("rack.interconnect", "repro.rack.interconnect", "VniTable.drop", COUNT),
    # event core
    ("core.events", "repro.core.events", "EventCore.step", SPAN),
    # arrivals and the traffic engine
    ("workloads.arrivals", "repro.workloads.arrivals", "PoissonProcess.next_chunk", SPAN, _n_result),
    ("workloads.arrivals", "repro.workloads.arrivals", "DiurnalProcess.next_chunk", SPAN, _n_result),
    ("workloads.traffic", "repro.workloads.traffic", "TrafficEngine.__init__", SPAN),
    ("workloads.traffic", "repro.workloads.traffic", "TrafficEngine.run", SPAN),
    ("workloads.traffic", "repro.workloads.traffic", "TrafficEngine._wake", SPAN),
    ("workloads.traffic", "repro.workloads.traffic", "DataPlaneBackend.run_batch", SPAN, _n_keys),
    # resilience and chaos
    ("workloads.resilience", "repro.workloads.resilience", "ResilientTrafficEngine.__init__", SPAN),
    ("workloads.resilience", "repro.workloads.resilience", "ResilientTrafficEngine._run_admitted", SPAN),
    ("workloads.resilience", "repro.workloads.resilience", "ResilientTrafficEngine.feed_health_alerts", SPAN),
    ("workloads.resilience", "repro.workloads.resilience", "ResilientTrafficEngine.finalize", SPAN),
    ("workloads.resilience", "repro.workloads.resilience", "ChaosUnderLoad.run", SPAN),
    ("workloads.resilience", "repro.workloads.resilience", "ChaosUnderLoad.sync_recorder", SPAN),
    ("chaos", "repro.chaos.runner", "CampaignRunner._apply", SPAN),
    ("flacdk.reliability", "repro.flacdk.reliability.scrub", "MemoryScrubber.step", SPAN),
    # closed-loop Redis: app, IPC, shared structures, TCP baseline
    ("apps.redis", "repro.apps.redis", "MiniRedisClient.request", SPAN),
    ("apps.redis", "repro.apps.redis", "MiniRedisServer.serve_pending", SPAN),
    ("apps.redis", "repro.apps.redis", "MiniRedisServer.execute", SPAN),
    ("core.ipc", "repro.core.ipc.socket", "Connection.send", SPAN),
    ("core.ipc", "repro.core.ipc.socket", "Connection.recv", SPAN),
    ("core.ipc", "repro.core.ipc.shared_buffer", "BufferPool.put", COUNT),
    ("core.ipc", "repro.core.ipc.shared_buffer", "BufferPool.get", COUNT),
    ("core.ipc", "repro.core.ipc.shared_buffer", "BufferPool.free", COUNT),
    ("flacdk.structures", "repro.flacdk.structures.ringbuffer", "SpscRing.try_push", COUNT),
    ("flacdk.structures", "repro.flacdk.structures.ringbuffer", "SpscRing.try_pop", COUNT),
    ("net", "repro.net.tcp", "TcpConnection.send", SPAN),
    ("net", "repro.net.tcp", "TcpConnection.recv", SPAN),
    # telemetry sinks (only `incidents-observed` switches them on)
    ("telemetry.registry", "repro.telemetry", "TelemetryState.count", COUNT),
    ("telemetry.registry", "repro.telemetry.registry", "MetricsRegistry.inc", COUNT),
    ("telemetry.registry", "repro.telemetry.registry", "MetricsRegistry.add", COUNT),
    ("telemetry.registry", "repro.telemetry.registry", "MetricsRegistry.set_gauge", COUNT),
    ("telemetry.registry", "repro.telemetry.registry", "MetricsRegistry.observe", COUNT),
    ("telemetry.registry", "repro.telemetry.registry", "MetricsRegistry.observe_batch", COUNT),
    ("telemetry.spans", "repro.telemetry.spans", "TraceBuffer.begin", COUNT),
    ("telemetry.spans", "repro.telemetry.spans", "TraceBuffer.end", COUNT),
    ("telemetry.spans", "repro.telemetry.spans", "TraceBuffer.to_chrome_trace", SPAN),
    ("telemetry.spans", "repro.telemetry.spans", "TraceBuffer.critical_path_summary", SPAN),
    ("telemetry.health", "repro.telemetry.health.engine", "HealthEngine.__init__", SPAN),
    ("telemetry.health", "repro.telemetry.health.engine", "HealthEngine.tick", SPAN),
    ("telemetry.recorder", "repro.telemetry.health.recorder", "FlightRecorder.record_frame", COUNT),
    ("telemetry.recorder", "repro.telemetry.health.recorder", "FlightRecorder.record_alert", COUNT),
    ("telemetry.recorder", "repro.telemetry.health.recorder", "FlightRecorder.snapshot", SPAN),
    ("telemetry.atlas", "repro.telemetry.atlas", "Atlas.touch", COUNT),
    ("telemetry.atlas", "repro.telemetry.atlas", "Atlas.touch_many", COUNT),
    ("telemetry.atlas", "repro.telemetry.atlas", "Atlas.note_queue_delay", COUNT),
    ("telemetry.atlas", "repro.telemetry.atlas", "Atlas._drain", SPAN),
    ("telemetry.incidents", "repro.telemetry.incidents.runner", "run_scenario", SPAN),
    ("telemetry.incidents.score", "repro.telemetry.incidents.runner", "score_dump", SPAN),
)

_BULK_LAYER = "rack.machine.bulk"
#: single ops that count as sequential fallback when issued under a bulk call
_FALLBACK_NAMES = ("RackMachine.load", "RackMachine.store")
#: spans that root one batch / one request - their descendants share its id
_BATCH_ROOTS = ("TrafficEngine._wake", "MiniRedisClient.request")


def _resolve(module: str, qualname: str):
    """(owner object, attribute name) for one :data:`TABLE` row."""
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Installs the wrappers, collects counts/self time/spans, uninstalls."""

    def __init__(self) -> None:
        #: name -> [calls, self_ns, work]; one mutable cell per callable
        self.stats: Dict[str, List[int]] = {}
        self.layer_of: Dict[str, str] = {}
        #: (name, layer, start_ns, end_ns, parent index or -1)
        self.spans: List[Optional[tuple]] = []
        #: single loads/stores issued while a bulk call was on the stack -
        #: the bulk path's sequential fallback
        self.fallback_ops = 0
        #: ``NodeCache.stats`` of every machine built while installed
        self.cache_stats: list = []
        self._bulk_depth = 0
        #: child-time accumulators, one per open wrapper; slot 0 is the
        #: root and ends up holding the total attributed (top-level) time
        self._child: List[int] = [0]
        self._parents: List[int] = [-1]
        self._patched: List[tuple] = []

    # -- install / remove ------------------------------------------------------

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer, module, qualname, kind, *work in TABLE:
            owner, attr = _resolve(module, qualname)
            # a class's own dict, so an inherited method is an error here
            # instead of a wrapper that `remove` cannot take back out
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self.layer_of[qualname] = layer
            wrapper = self._wrap(original, qualname, layer, kind == SPAN,
                                 work[0] if work else None)
            wrapper.__wrapped__ = original
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original))
        return self

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, fn, name: str, layer: str, span: bool, work):
        """The timing wrapper for one callable.

        It pushes a child-time slot, times the call, and on the way out
        books ``duration - children`` as the callable's self time and adds
        the whole duration to its parent's slot.  Everything it touches is
        a closure local, so the hot path does no lookups on the tracer
        beyond the two fallback counters.
        """
        cell = self.stats.setdefault(name, [0, 0, 0])
        child, parents, spans = self._child, self._parents, self.spans
        clock = time.perf_counter_ns
        tracer = self
        is_bulk = layer == _BULK_LAYER
        is_fallback = name in _FALLBACK_NAMES

        def wrapper(*args, **kwargs):
            if is_bulk:
                tracer._bulk_depth += 1
            elif is_fallback and tracer._bulk_depth:
                tracer.fallback_ops += 1
            if span:
                idx = len(spans)
                spans.append(None)
                parent = parents[-1]
                parents.append(idx)
            child.append(0)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                dur = t1 - t0
                cell[0] += 1
                cell[1] += dur - child.pop()
                child[-1] += dur
                if span:
                    parents.pop()
                    spans[idx] = (name, layer, t0, t1, parent)
                if is_bulk:
                    tracer._bulk_depth -= 1
                if ok and work is not None:
                    cell[2] += work(tracer, args, result)

        return wrapper

    # -- reading the results ---------------------------------------------------

    @property
    def attributed_ns(self) -> int:
        """Host ns spent inside top-level wrapped calls (= sum of self times)."""
        return self._child[0]

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def work(self, name: str) -> int:
        return self.stats[name][2]

    def _layer_sum(self, layer: str, slot: int) -> int:
        return sum(c[slot] for n, c in self.stats.items() if self.layer_of[n] == layer)

    def layer_calls(self, layer: str) -> int:
        return self._layer_sum(layer, 0)

    def layer_busy_s(self, layer: str) -> float:
        """Sum of the self time of every wrapped callable of ``layer``."""
        return self._layer_sum(layer, 1) / 1e9

    def layer_work(self, layer: str) -> int:
        return self._layer_sum(layer, 2)

    def write_chrome_trace(self, path, workload: str) -> int:
        """Write the recorded spans as a Chrome trace; returns the span count.

        ``args`` carry the span's own id, its parent's, and the id of the
        enclosing batch/request root, so one batch's spans can be pulled
        out by a single key.
        """
        base = min((s[2] for s in self.spans if s is not None), default=0)
        batch_of: List[int] = []
        events = []
        for idx, span in enumerate(self.spans):
            if span is None:  # left open by an exception that ended the rep
                batch_of.append(-1)
                continue
            name, layer, t0, t1, parent = span
            if name in _BATCH_ROOTS:
                batch = idx
            else:
                batch = batch_of[parent] if parent >= 0 else -1
            batch_of.append(batch)
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 0, "tid": 0,
                "ts": (t0 - base) / 1e3, "dur": (t1 - t0) / 1e3,
                "args": {"id": idx, "parent": parent, "batch": batch},
            })
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {
                "workload": workload,
                "clock": "host perf_counter_ns",
                "calls": {n: c[0] for n, c in sorted(self.stats.items())},
                "self_ns": {n: c[1] for n, c in sorted(self.stats.items())},
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return len(events)

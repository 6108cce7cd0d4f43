"""``repro.telemetry`` — rack-wide observability for the FlacOS substrate.

The paper's reliability stack (§3.2) and its evaluation both presuppose
*rack-wide* visibility: kernel state crosses node boundaries, so no
single node's counters explain a latency.  This package is that layer:

* a :class:`~repro.telemetry.registry.MetricsRegistry` of counters,
  gauges and fixed log-bucket histograms keyed ``(node, subsystem,
  name)``;
* :func:`span` tracing that records cause-linked trees and exports
  Chrome ``trace_event`` JSON plus a flamegraph-style text summary;
* a dashboard renderer (``python -m repro.telemetry dashboard run.json``).

Instrumentation contract
------------------------

A series is recorded only where a reader reads it: ``rack.machine``
cache and fault counts, ``core.ipc`` socket sends, ``fabric`` links,
``reliability`` faults, repairs, latent pages and evacuations, and per
tenant the availability pair (:data:`ADMITTED_SERIES`,
:data:`LOST_SERIES`) plus ``latency_ns``.  TLB, swap, dedup, page cache,
RPC and fault boxes keep only their own ``*Stats``.  Every hook is
guarded by **one attribute check** on the module-level :data:`TELEMETRY`
state, as the machine records a cached access once it completes::

    if _TEL.enabled:
        _TEL.count(node_id, "rack.machine", "cache.hit", hits)

With telemetry disabled (the default) the data-plane fast path keeps its
golden latencies (``tests/rack/test_golden_latency.py``); enabled or
not, telemetry never advances a simulated clock — observing the rack is
free in simulated time.
"""

from __future__ import annotations

import json
import pathlib
from contextlib import contextmanager
from typing import Optional, Union

from .registry import (
    BUCKET_BOUNDS,
    Histogram,
    MetricKey,
    MetricsRegistry,
    N_BUCKETS,
    RACK_WIDE,
    bucket_index,
    rate,
)
from .schema import RUN, RUN_SCHEMA, load
from .spans import Span, TraceBuffer, validate_chrome_trace

#: Subsystem prefix for tenant-scoped metrics (one subsystem per tenant,
#: so existing keying/export/digest machinery applies unchanged).
TENANT_PREFIX = "traffic/"
#: the availability pair, the only tenant counters any reader reads: the
#: requests a tenant's server completed, and those the request path lost
ADMITTED_SERIES = "admitted"
LOST_SERIES = "resilience.lost"


def tenant_subsystem(tenant: str) -> str:
    """The subsystem string carrying ``tenant``'s scoped metrics."""
    return TENANT_PREFIX + tenant


class TelemetryState:
    """The process-wide telemetry switchboard.

    ``enabled`` gates metrics, ``tracing`` gates spans (tracing implies
    enabled).  Both default off so an un-instrumented run pays exactly
    one attribute check per hook.
    """

    __slots__ = (
        "enabled",
        "tracing",
        "registry",
        "trace",
        "atlas",
    )

    def __init__(self) -> None:
        self.enabled = False
        self.tracing = False
        self.registry = MetricsRegistry()
        self.trace = TraceBuffer()
        #: the resource-attribution atlas (:mod:`repro.telemetry.atlas`),
        #: or None.  Hot paths pay one attribute check when unset, the
        #: same contract as ``enabled`` — and the atlas keeps its own
        #: state, never registry counters, so enabling it cannot perturb
        #: registry digests.
        self.atlas = None

    # -- switches --------------------------------------------------------------

    def enable(self, tracing: bool = False) -> "TelemetryState":
        self.enabled = True
        if tracing:
            self.tracing = True
        return self

    def disable(self) -> "TelemetryState":
        self.enabled = False
        self.tracing = False
        return self

    def reset(self) -> "TelemetryState":
        """Drop every recorded metric and span (switches unchanged)."""
        self.registry.clear()
        self.trace.clear()
        if self.atlas is not None:
            self.atlas.clear()
        return self

    # -- hot-path recording helpers --------------------------------------------

    def count(self, node: int, subsystem: str, name: str, delta: float = 1.0) -> None:
        """Record one event's counter delta: ``registry.inc`` minus one
        call (the per-event instrumentation call)."""
        counters = self.registry.counters
        key = (node, subsystem, name)
        counters[key] = counters.get(key, 0.0) + delta

    def add(self, node: int, subsystem: str, name: str, delta: float = 1.0) -> None:
        """Record one *pre-aggregated* batch delta (bulk paths call this
        once per batch)."""
        self.registry.add((node, subsystem, name), delta)

    # -- tenant scoping --------------------------------------------------------

    def tenant_add(self, node: int, tenant: str, name: str, delta: float = 1.0) -> None:
        """Aggregated counter delta scoped to one tenant."""
        self.registry.add((node, tenant_subsystem(tenant), name), delta)

    def tenant_observe_batch(self, node: int, tenant: str, name: str, values) -> None:
        """Batch histogram samples scoped to one tenant."""
        self.registry.observe_batch(node, tenant_subsystem(tenant), name, values)

    # -- export ----------------------------------------------------------------

    def export_run(self, meta: Optional[dict] = None) -> dict:
        """The whole run as one JSON-ready dict (metrics + trace, plus
        the attribution atlas section when one is attached)."""
        run = {
            "schema": RUN_SCHEMA,
            "meta": meta or {},
            "metrics": self.registry.snapshot(),
            "trace": self.trace.to_chrome_trace() if self.trace.spans else None,
        }
        if self.atlas is not None:
            run["atlas"] = self.atlas.snapshot()
        return run

    def export_json(
        self, path: Union[str, pathlib.Path], meta: Optional[dict] = None
    ) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text(json.dumps(self.export_run(meta), indent=2) + "\n")
        return path


#: The singleton every instrumentation site checks.
TELEMETRY = TelemetryState()


def enable(tracing: bool = False) -> TelemetryState:
    return TELEMETRY.enable(tracing=tracing)


def disable() -> TelemetryState:
    return TELEMETRY.disable()


def reset() -> TelemetryState:
    return TELEMETRY.reset()


def load_run(path: Union[str, pathlib.Path]) -> dict:
    """Read an exported run that :data:`~repro.telemetry.schema.RUN` holds all of."""
    return load(path, RUN)


@contextmanager
def span(name: str, ctx=None, node: int = RACK_WIDE, **args):
    """Trace one operation: ``with span("fs.read", ctx=ctx, file=fid): ...``

    ``ctx`` is a :class:`~repro.rack.machine.NodeContext`; its simulated
    clock stamps the span and its node becomes the span's node.  Without
    a context the span is rack-wide and timestamped with the parent's
    clock position (or zero at top level) — still deterministic.  Its
    parent is the span on top of the stack.  When tracing is off this is
    a no-op that yields ``None``.
    """
    t = TELEMETRY
    if not t.tracing:
        yield None
        return
    if ctx is not None:
        node = ctx.node_id
        start = ctx.now()
    else:
        current = t.trace.current()
        start = current.start_ns if current is not None else 0.0
    s = t.trace.begin(name, node, start, **args)
    try:
        yield s
    finally:
        if ctx is not None:
            end = ctx.now()
        else:
            end = max(start, s.start_ns)
        t.trace.end(s, end)


__all__ = [
    "ADMITTED_SERIES",
    "BUCKET_BOUNDS",
    "Histogram",
    "LOST_SERIES",
    "MetricKey",
    "MetricsRegistry",
    "N_BUCKETS",
    "RACK_WIDE",
    "RUN_SCHEMA",
    "Span",
    "TELEMETRY",
    "TENANT_PREFIX",
    "TelemetryState",
    "TraceBuffer",
    "tenant_subsystem",
    "bucket_index",
    "disable",
    "enable",
    "load_run",
    "rate",
    "reset",
    "span",
    "validate_chrome_trace",
]

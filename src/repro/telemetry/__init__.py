"""``repro.telemetry`` — rack-wide observability for the FlacOS substrate.

The paper's reliability stack (§3.2) and its evaluation both presuppose
*rack-wide* visibility: kernel state crosses node boundaries, so no
single node's counters explain a latency.  This package is that layer:

* a :class:`~repro.telemetry.registry.MetricsRegistry` of counters,
  gauges and fixed log-bucket histograms keyed ``(node, subsystem,
  name)``;
* :func:`span` tracing that records cause-linked trees and exports
  Chrome ``trace_event`` JSON plus a flamegraph-style text summary;
* a dashboard renderer (``python -m repro.telemetry run.json``).

Instrumentation contract
------------------------

The substrate's data plane is instrumented at its load-bearing paths
(``rack.machine`` cache hits/misses, ``core.memory`` walks and
shootdowns, ``core.fs`` page-cache and journal, ``core.ipc`` RPC,
``flacdk.reliability`` repair/scrub, chaos).  Every hook is guarded by
**one attribute check** on the module-level :data:`TELEMETRY` state, as
the machine records a cached access once it completes::

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
import sys
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
from .spans import STACK_PARENT, Span, TraceBuffer, validate_chrome_trace

RUN_SCHEMA = "repro.telemetry.run/1"

#: Subsystem prefix for tenant-scoped metrics (one subsystem per tenant,
#: so existing keying/export/digest machinery applies unchanged).
TENANT_PREFIX = "traffic/"


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


#: what reading a dump, snapshot or run file from outside can raise: missing,
#: not JSON or of another schema (OSError, ValueError), or a row lacking a key
INPUT_ERRORS = (OSError, ValueError, KeyError)


def refuse_input(path, exc: Exception) -> int:
    """Print the one ``error:`` line for a bad input file; the CLI exit status."""
    if isinstance(exc, OSError):
        detail = exc.strerror or str(exc)
    elif isinstance(exc, KeyError):
        detail = f"a row lacks the key {exc}"
    elif isinstance(exc, json.JSONDecodeError):
        detail = f"not JSON ({exc})"
    else:
        detail = str(exc)
    print(f"error: {path}: {detail}", file=sys.stderr)
    return 2


def load_run(path: Union[str, pathlib.Path]) -> dict:
    """Read an exported run, validating schema and (if present) trace."""
    data = json.loads(pathlib.Path(path).read_text())
    if data.get("schema") != RUN_SCHEMA:
        raise ValueError(f"not a telemetry run export (schema={data.get('schema')!r})")
    if data.get("trace") is not None:
        validate_chrome_trace(data["trace"])
    return data


@contextmanager
def span(name: str, ctx=None, node: int = RACK_WIDE, parent=STACK_PARENT, **args):
    """Trace one operation: ``with span("fs.read", ctx=ctx, file=fid): ...``

    ``ctx`` is a :class:`~repro.rack.machine.NodeContext`; its simulated
    clock stamps the span and its node becomes the span's node.  Without
    a context the span is rack-wide and timestamped with the parent's
    clock position (or zero at top level) — still deterministic.
    ``parent`` overrides the stack-derived parent span id (pass a span
    id, or ``None`` to force a root span) for operations whose causal
    parent has already closed — retries, hedges, deferred event-heap
    work.  When tracing is off this is a no-op that yields ``None``.
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
    s = t.trace.begin(name, node, start, parent_id=parent, **args)
    try:
        yield s
    finally:
        if ctx is not None:
            end = ctx.now()
        else:
            end = max(start, s.start_ns)
        t.trace.end(s, end)


__all__ = [
    "BUCKET_BOUNDS",
    "Histogram",
    "MetricKey",
    "MetricsRegistry",
    "N_BUCKETS",
    "RACK_WIDE",
    "RUN_SCHEMA",
    "STACK_PARENT",
    "Span",
    "TELEMETRY",
    "TENANT_PREFIX",
    "TelemetryState",
    "TraceBuffer",
    "tenant_subsystem",
    "bucket_index",
    "disable",
    "enable",
    "INPUT_ERRORS",
    "load_run",
    "refuse_input",
    "rate",
    "reset",
    "span",
    "validate_chrome_trace",
]

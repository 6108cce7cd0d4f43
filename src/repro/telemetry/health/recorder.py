"""The crash flight recorder: bounded recent history, dumped on disaster.

Counters tell you *that* the rack degraded; the flight recorder tells
you *in what order*.  It keeps a bounded ring of recent window frames,
alert/anomaly transitions, the tail of the traced spans, and the tail of
each node's fault log.  When a node crashes, a UE storm lands, or a
chaos invariant fails, the whole ring is snapshotted to JSON — the
black box an operator (or ``python -m repro.telemetry.health
postmortem``) reads after the fact.

Snapshots are deterministic: every field is simulated-time data, keys
are sorted, and serialisation uses ``sort_keys`` — two same-seed runs
produce byte-identical dumps.
"""

from __future__ import annotations

import json
import pathlib
from collections import deque
from typing import Deque, Dict, List, Optional, Union

from .anomaly import Anomaly
from .slo import Alert
from .windows import WindowFrame

#: Schema tag for flight-recorder dumps, and the only one that loads:
#: health history (windows, alerts, anomalies, incidents, span and fault
#: tails), the mitigation-side black box the incident scorer reads
#: (circuit-breaker transitions, per-tenant resilience-counter samples,
#: predictor boosts, span args) and the attribution-atlas tails —
#: per-link fabric accounting (``atlas_links``, with saturated-byte
#: blame shares and down timestamps) and the hot-page sketch rows
#: (``atlas_pages``).
FLIGHT_SCHEMA = "repro.telemetry.flightrec/3"


def check_schema(data: dict, where: str = "") -> dict:
    """``data`` if it is a :data:`FLIGHT_SCHEMA` dump, else ``ValueError``."""
    if data.get("schema") != FLIGHT_SCHEMA:
        raise ValueError(
            f"{where}not a flight-recorder dump (schema={data.get('schema')!r})"
        )
    return data


class FlightRecorder:
    """Bounded ring buffers of recent health history."""

    def __init__(
        self,
        capacity_windows: int = 64,
        alert_tail: int = 256,
        anomaly_tail: int = 256,
        span_tail: int = 128,
        fault_tail: int = 64,
        breaker_tail: int = 128,
        resilience_tail: int = 256,
        boost_tail: int = 64,
    ) -> None:
        self.capacity_windows = capacity_windows
        self.span_tail = span_tail
        self.fault_tail = fault_tail
        self.frames: Deque[WindowFrame] = deque(maxlen=capacity_windows)
        self.alert_events: Deque[dict] = deque(maxlen=alert_tail)
        self.anomalies: Deque[Anomaly] = deque(maxlen=anomaly_tail)
        self.incidents: Deque[dict] = deque(maxlen=anomaly_tail)
        #: circuit-breaker transitions (tenant/target/from/to/t_ns/reason)
        self.breaker_events: Deque[dict] = deque(maxlen=breaker_tail)
        #: per-tenant resilience counter samples, recorded on change
        self.resilience_samples: Deque[dict] = deque(maxlen=resilience_tail)
        #: predictor boosts (t_ns/cause/pages)
        self.boosts: Deque[dict] = deque(maxlen=boost_tail)
        # populated by from_snapshot so a loaded dump re-snapshots exactly
        self._static_spans: List[list] = []
        self._static_faults: Dict[str, List[dict]] = {}
        self._static_atlas_links: List[dict] = []
        self._static_atlas_pages: List[dict] = []

    # -- recording -------------------------------------------------------------

    def record_frame(self, frame: WindowFrame) -> None:
        self.frames.append(frame)

    def record_alert(self, alert: Alert) -> None:
        """Record one alert *transition* (fire and resolve are two entries)."""
        self.alert_events.append(dict(alert.to_dict(), event=alert.state))

    def record_anomaly(self, anomaly: Anomaly) -> None:
        self.anomalies.append(anomaly)

    def record_incident(self, incident: dict) -> None:
        """A fault-box recovery incident (blast radius + recoveries)."""
        self.incidents.append(incident)

    def record_breaker(self, event: dict) -> None:
        """One circuit-breaker transition (already structured)."""
        self.breaker_events.append(event)

    def record_resilience(self, sample: dict) -> None:
        """One per-tenant resilience-counter sample (taken on change)."""
        self.resilience_samples.append(sample)

    def record_boost(self, boost: dict) -> None:
        """One predictor boost decision (``t_ns``/``cause``/``pages``)."""
        self.boosts.append(boost)

    # -- snapshotting ----------------------------------------------------------

    def snapshot(
        self,
        reason: str,
        now_ns: float,
        machine=None,
        trace=None,
    ) -> dict:
        """The black box as one JSON-ready dict.

        ``machine`` contributes the per-node fault-log tail and ``trace``
        (a :class:`~repro.telemetry.spans.TraceBuffer`) the span tail;
        either may be omitted (a recorder rebuilt by
        :meth:`from_snapshot` replays the tails it was loaded with).
        """
        return {
            "schema": FLIGHT_SCHEMA,
            "reason": reason,
            "at_ns": now_ns,
            "windows": [f.to_dict() for f in self.frames],
            "alerts": list(self.alert_events),
            "anomalies": [a.to_dict() for a in self.anomalies],
            "incidents": list(self.incidents),
            "breakers": list(self.breaker_events),
            "resilience": list(self.resilience_samples),
            "boosts": list(self.boosts),
            "spans": self._span_tail(trace),
            "fault_tail": self._fault_log_tail(machine),
            "atlas_links": self._atlas_link_tail(machine, now_ns),
            "atlas_pages": self._atlas_page_tail(),
        }

    def dump(
        self,
        path: Union[str, pathlib.Path],
        reason: str,
        now_ns: float,
        machine=None,
        trace=None,
    ) -> pathlib.Path:
        path = pathlib.Path(path)
        snap = self.snapshot(reason, now_ns, machine=machine, trace=trace)
        path.write_text(json.dumps(snap, indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def from_snapshot(cls, data: dict) -> "FlightRecorder":
        """Rebuild a recorder from a dump (postmortem / round-trip path)."""
        check_schema(data)
        rec = cls()
        for fdict in data.get("windows", []):
            rec.frames.append(WindowFrame.from_dict(fdict))
        rec.alert_events.extend(data.get("alerts", []))
        for adict in data.get("anomalies", []):
            rec.anomalies.append(Anomaly.from_dict(adict))
        rec.incidents.extend(data.get("incidents", []))
        rec.breaker_events.extend(data.get("breakers", []))
        rec.resilience_samples.extend(data.get("resilience", []))
        rec.boosts.extend(data.get("boosts", []))
        rec._static_spans = list(data.get("spans", []))
        rec._static_faults = dict(data.get("fault_tail", {}))
        rec._static_atlas_links = list(data.get("atlas_links", []))
        rec._static_atlas_pages = list(data.get("atlas_pages", []))
        return rec

    # -- tails -----------------------------------------------------------------

    def _span_tail(self, trace) -> List[list]:
        if trace is None or not getattr(trace, "spans", None):
            return self._static_spans
        tail = trace.spans[-self.span_tail :]
        return [
            [s.name, s.node, s.start_ns, s.end_ns, s.parent_id,
             {k: _jsonable(v) for k, v in s.args}]
            for s in tail
        ]

    def _fault_log_tail(self, machine) -> Dict[str, List[dict]]:
        if machine is None:
            return self._static_faults
        by_node: Dict[str, List[dict]] = {}
        for event in machine.faults.log.events():
            node = event.node_id if event.node_id is not None else -1
            by_node.setdefault(str(node), []).append(
                {
                    "kind": event.kind.value,
                    "time_ns": event.time_ns,
                    "addr": event.addr,
                    "detail": event.detail,
                }
            )
        return {
            node: events[-self.fault_tail :] for node, events in sorted(by_node.items())
        }

    def _atlas_link_tail(self, machine, now_ns: float) -> List[dict]:
        """Per-link fabric accounting at dump time (the atlas link tail).

        Always populated when a machine is given — per-link charging is
        unconditional on the fabric, no atlas needs to be enabled — so
        every dump carries link-level blame raw material.
        """
        fabric = getattr(machine, "fabric", None) if machine is not None else None
        if fabric is None:
            return self._static_atlas_links
        rows: List[dict] = []
        table = fabric.links
        for link in table.links():
            s = table.get(link)
            blame = [
                {"vni": vni, "tenant": fabric.vnis.label_of(vni), "share": round(share, 6)}
                for vni, share in sorted(table.saturated_share(link).items())
            ]
            rows.append(
                {
                    "link": link,
                    "bytes": s.bytes,
                    "requests": s.requests,
                    "utilisation": round(table.utilisation(link, now_ns), 6),
                    "saturated_bytes": s.saturated_bytes,
                    "saturated_windows": s.saturated_windows,
                    "downs": list(s.downs),
                    "blame": blame,
                }
            )
        return rows

    def _atlas_page_tail(self, limit: int = 32) -> List[dict]:
        """Hot-page sketch rows when an atlas is enabled, else the
        static tail a loaded dump carried."""
        from .. import TELEMETRY

        atlas = TELEMETRY.atlas
        if atlas is None:
            return self._static_atlas_pages
        return atlas.hot_pages(limit)


def _jsonable(value):
    """Span-arg values coerced to something JSON round-trips exactly."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def load_dump(path: Union[str, pathlib.Path]) -> dict:
    """Read and schema-check a flight-recorder dump file."""
    return check_schema(json.loads(pathlib.Path(path).read_text()), f"{path}: ")

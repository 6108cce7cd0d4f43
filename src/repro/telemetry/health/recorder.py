"""The crash flight recorder: bounded recent history, dumped on disaster.

Counters tell you *that* the rack degraded; the flight recorder tells
you *in what order*.  It keeps a bounded ring of recent window frames,
alert transitions, the tail of the traced spans, and the tail of each
node's fault log.  When a node crashes, a UE storm lands, or a
chaos invariant fails, the whole ring is snapshotted to JSON — the
black box an operator (or ``python -m repro.telemetry
postmortem``) reads after the fact.

Snapshots are deterministic: every field is simulated-time data, keys
are sorted, and serialisation uses ``sort_keys`` — two same-seed runs
produce byte-identical dumps.

This module is the only one that knows the dump's layout.  Readers (the
postmortem, the incident scorer, the dashboard's incident timeline) see a
dump through two views: :func:`dump_frames` parses its window rows, and
:func:`dump_events` lists every other dated row, oldest first.
"""

from __future__ import annotations

import json
import pathlib
from collections import deque
from operator import itemgetter
from typing import Deque, Dict, List, NamedTuple, Union

from ...rack.params import whole
from ..registry import RACK_WIDE
from .slo import Alert
from .windows import WindowFrame

#: Schema tag for flight-recorder dumps, and the only one that loads:
#: health history (counter-delta windows, alert transitions), the
#: mitigation-side black box (breaker transitions, resilience-counter
#: samples, predictor boosts) and the attribution-atlas tails (per-link
#: fabric accounting with down stamps, hot pages).
FLIGHT_SCHEMA = "repro.telemetry.flightrec/4"

#: Ring sizes of the recorder's event tails; each node keeps its last
#: :data:`FAULT_TAIL` fault-log events in a dump.
ALERT_TAIL = 256
FAULT_TAIL = 64
BREAKER_TAIL = 128
RESILIENCE_TAIL = 256
BOOST_TAIL = 64
#: hot pages of the atlas sketch in a dump
ATLAS_PAGE_TAIL = 32

#: :attr:`DumpEvent.kind` values, one per dated dump row
ALERT_FIRED = "alert.fired"
ALERT_RESOLVED = "alert.resolved"
FAULT = "fault"
BREAKER = "breaker"
BOOST = "boost"
RESILIENCE = "resilience"
SPAN = "span"
LINK_DOWN = "link.down"


def check_schema(data: dict) -> dict:
    """``data`` if it is a :data:`FLIGHT_SCHEMA` dump, else ``ValueError``."""
    if not isinstance(data, dict):
        raise ValueError(f"not a JSON object (a {type(data).__name__})")
    if data.get("schema") != FLIGHT_SCHEMA:
        raise ValueError(f"not a flight-recorder dump (schema={data.get('schema')!r})")
    return data


class FlightRecorder:
    """Bounded ring buffers of recent health history."""

    def __init__(self, capacity_windows: int = 64, span_tail: int = 128) -> None:
        # 0 would keep every span (``spans[-0:]``), a negative tail drop
        # the oldest ones instead
        for name, value in (("capacity_windows", capacity_windows), ("span_tail", span_tail)):
            if not (whole(value) and value >= 1):
                raise ValueError(
                    f"FlightRecorder.{name} must be an integer >= 1, got {value!r}")
        self.span_tail = span_tail
        self.frames: Deque[WindowFrame] = deque(maxlen=capacity_windows)
        self.alert_events: Deque[dict] = deque(maxlen=ALERT_TAIL)
        #: circuit-breaker transitions (tenant/target/from/to/t_ns/reason)
        self.breaker_events: Deque[dict] = deque(maxlen=BREAKER_TAIL)
        #: per-tenant resilience counter samples, recorded on change
        self.resilience_samples: Deque[dict] = deque(maxlen=RESILIENCE_TAIL)
        #: predictor boosts (t_ns/cause/pages)
        self.boosts: Deque[dict] = deque(maxlen=BOOST_TAIL)

    # -- recording -------------------------------------------------------------

    def record_frame(self, frame: WindowFrame) -> None:
        self.frames.append(frame)

    def record_alert(self, alert: Alert) -> None:
        """Record one alert *transition* (fire and resolve are two entries)."""
        self.alert_events.append(dict(alert.to_dict(), event=alert.state))

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

        ``machine`` contributes the per-node fault-log and fabric-link
        tails and ``trace`` (a :class:`~repro.telemetry.spans.TraceBuffer`)
        the span tail; either may be omitted, leaving its tails empty.
        """
        return {
            "schema": FLIGHT_SCHEMA,
            "reason": reason,
            "at_ns": now_ns,
            "windows": [f.to_dict() for f in self.frames],
            "alerts": list(self.alert_events),
            "breakers": list(self.breaker_events),
            "resilience": list(self.resilience_samples),
            "boosts": list(self.boosts),
            "spans": self._span_tail(trace),
            "fault_tail": self._fault_log_tail(machine),
            "atlas_links": self._atlas_link_tail(machine, now_ns),
            "atlas_pages": self._atlas_page_tail(),
        }

    # -- tails -----------------------------------------------------------------

    def _span_tail(self, trace) -> List[list]:
        """The last spans, their args coerced to values JSON round-trips exactly."""
        if trace is None:
            return []
        return [
            [s.name, s.node, s.start_ns, s.end_ns, s.parent_id,
             {k: v if v is None or isinstance(v, (bool, int, float, str)) else str(v)
              for k, v in s.args}]
            for s in trace.spans[-self.span_tail :]
        ]

    def _fault_log_tail(self, machine) -> Dict[str, List[dict]]:
        if machine is None:
            return {}
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
            node: events[-FAULT_TAIL:] for node, events in sorted(by_node.items())
        }

    def _atlas_link_tail(self, machine, now_ns: float) -> List[dict]:
        """The fabric's link rows at dump time (the atlas link tail), cut to
        what a dump keeps: a link's ``blame`` is its tenants that moved
        bytes during saturated windows.

        Always populated when a machine is given — per-link charging is
        unconditional on the fabric, no atlas needs to be enabled — so
        every dump carries link-level blame raw material.
        """
        if machine is None:
            return []
        return [
            {
                "link": row["link"],
                "bytes": row["bytes"],
                "requests": row["requests"],
                "utilisation": row["utilisation"],
                "saturated_bytes": row["saturated_bytes"],
                "saturated_windows": row["saturated_windows"],
                "downs": row["downs"],
                "blame": [
                    {"vni": t["vni"], "tenant": t["tenant"], "share": t["share"]}
                    for t in row["tenants"] if t["saturated_bytes"]
                ],
            }
            for row in machine.fabric.link_rows(now_ns)
        ]

    def _atlas_page_tail(self) -> List[dict]:
        """Hot-page sketch rows when an atlas is enabled."""
        from .. import TELEMETRY

        atlas = TELEMETRY.atlas
        return [] if atlas is None else atlas.hot_pages(ATLAS_PAGE_TAIL)


def load_dump(path: Union[str, pathlib.Path]) -> dict:
    """Read and schema-check a flight-recorder dump file whose every window
    row parses."""
    data = check_schema(json.loads(pathlib.Path(path).read_text()))
    dump_frames(data)
    return data


# -- the read side -------------------------------------------------------------


class DumpEvent(NamedTuple):
    """One dated dump row.  ``fields`` is the row itself; a span's list row
    becomes ``name``/``end_ns``/``parent_id``/``args`` plus ``seq``, its
    place in the span tail (the tail is in end order, not start order)."""

    t_ns: float
    kind: str
    node: int
    fields: dict


def dump_frames(dump: dict) -> List[WindowFrame]:
    """The dump's window rows, oldest first.  A malformed row is a
    ``ValueError`` naming it: the scorer would count it as a quiet window."""
    frames = []
    for i, row in enumerate(dump.get("windows", [])):
        try:
            frames.append(WindowFrame.from_dict(row))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"window row {i} is malformed ({exc!r})") from None
    return frames


def dump_events(dump: dict) -> List[DumpEvent]:
    """Every dated row of ``dump`` but its windows, oldest first.

    Rows of one instant keep their order within a section.  A resolved
    alert is dated by its resolution (its firing, if it has none); a fault
    carries the node its tail is filed under; a fabric link yields one
    :data:`LINK_DOWN` per down stamp and node endpoint.
    """
    events: List[DumpEvent] = []
    add = events.append
    for row in dump.get("alerts", []):
        if row.get("event") == "firing":
            add(DumpEvent(float(row["fired_ns"]), ALERT_FIRED, row["node"], row))
        else:
            t_ns = row.get("resolved_ns") or row["fired_ns"]
            add(DumpEvent(float(t_ns), ALERT_RESOLVED, row["node"], row))
    for node, tail in dump.get("fault_tail", {}).items():
        for row in tail:
            add(DumpEvent(float(row["time_ns"]), FAULT, int(node), row))
    for row in dump.get("breakers", []):
        add(DumpEvent(float(row["t_ns"]), BREAKER, int(row["target"]), row))
    for row in dump.get("boosts", []):
        add(DumpEvent(float(row["t_ns"]), BOOST, RACK_WIDE, row))
    for row in dump.get("resilience", []):
        add(DumpEvent(float(row["t_ns"]), RESILIENCE, RACK_WIDE, row))
    for seq, row in enumerate(dump.get("spans", [])):
        name, node, start_ns, end_ns, parent_id = row[:5]
        args = row[5] if len(row) > 5 else {}  # a row may end without its args
        add(DumpEvent(float(start_ns), SPAN, node, {
            "name": name, "end_ns": end_ns, "parent_id": parent_id,
            "args": args, "seq": seq,
        }))
    for row in dump.get("atlas_links", []):
        ends = [int(v[5:]) for v in str(row.get("link", "")).split("|")
                if v.startswith("node:")]
        for down in row.get("downs", []):
            for node in ends:
                add(DumpEvent(float(down), LINK_DOWN, node, row))
    events.sort(key=itemgetter(0))
    return events

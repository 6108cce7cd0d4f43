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

This module writes the dump's layout, and :data:`~repro.telemetry.schema.DUMP`
is what :func:`load_dump` checks a file against.  Readers (the postmortem,
the incident scorer, the dashboard's incident timeline) see a dump through
two views: :func:`dump_frames` parses its window rows, and
:func:`dump_events` lists every other dated row, oldest first.
"""

from __future__ import annotations

import pathlib
from collections import deque
from operator import itemgetter
from typing import Deque, Dict, List, NamedTuple, Union

from ...rack.params import whole
from ..registry import RACK_WIDE
from ..schema import DUMP, FLIGHT_SCHEMA, load
from .slo import Alert
from .windows import WindowFrame

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
        what a dump keeps: each link's bytes, requests and down stamps.

        Always populated when a machine is given — per-link charging is
        unconditional on the fabric, no atlas needs to be enabled — so
        every dump carries the link downs that localize a flap.
        """
        if machine is None:
            return []
        return [
            {"link": row["link"], "bytes": row["bytes"], "requests": row["requests"],
             "downs": row["downs"]}
            for row in machine.fabric.link_rows(now_ns)
        ]

    def _atlas_page_tail(self) -> List[dict]:
        """Hot-page sketch rows when an atlas is enabled."""
        from .. import TELEMETRY

        atlas = TELEMETRY.atlas
        return [] if atlas is None else atlas.hot_pages(ATLAS_PAGE_TAIL)


def load_dump(path: Union[str, pathlib.Path]) -> dict:
    """Read a flight-recorder dump that :data:`~repro.telemetry.schema.DUMP`
    holds all of: the layout :meth:`FlightRecorder.snapshot` writes."""
    return load(path, DUMP)


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
    """The dump's window rows, oldest first."""
    return list(map(WindowFrame.from_dict, dump["windows"]))


def dump_events(dump: dict) -> List[DumpEvent]:
    """Every dated row of ``dump`` but its windows, oldest first.

    Rows of one instant keep their order within a section.  A resolved
    alert is dated by its resolution (its firing, if it has none); a fault
    carries the node its tail is filed under; a fabric link yields one
    :data:`LINK_DOWN` per down stamp and node endpoint.
    """
    events: List[DumpEvent] = []
    add = events.append
    for row in dump["alerts"]:
        if row["event"] == "firing":
            add(DumpEvent(row["fired_ns"], ALERT_FIRED, row["node"], row))
        else:
            add(DumpEvent(row["resolved_ns"] or row["fired_ns"], ALERT_RESOLVED, row["node"], row))
    for node, tail in dump["fault_tail"].items():
        for row in tail:
            add(DumpEvent(row["time_ns"], FAULT, int(node), row))
    for row in dump["breakers"]:
        add(DumpEvent(row["t_ns"], BREAKER, row["target"], row))
    for row in dump["boosts"]:
        add(DumpEvent(row["t_ns"], BOOST, RACK_WIDE, row))
    for row in dump["resilience"]:
        add(DumpEvent(row["t_ns"], RESILIENCE, RACK_WIDE, row))
    for seq, (name, node, start_ns, end_ns, parent_id, args) in enumerate(dump["spans"]):
        add(DumpEvent(start_ns, SPAN, node, {
            "name": name, "end_ns": end_ns, "parent_id": parent_id,
            "args": args, "seq": seq,
        }))
    for row in dump["atlas_links"]:
        ends = [int(v[5:]) for v in row["link"].split("|") if v.startswith("node:")]
        for down in row["downs"]:
            for node in ends:
                add(DumpEvent(down, LINK_DOWN, node, row))
    events.sort(key=itemgetter(0))
    return events
